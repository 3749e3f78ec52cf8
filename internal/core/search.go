package core

import "fmt"

// SearchConfig parameterizes the heuristic exploration drivers (the GA
// and simulated-annealing strategies of internal/explore). The zero
// config means "use the defaults" everywhere it is accepted; its JSON
// encoding is the "search" block of a memorex.ExploreRequest, so a
// daemon job and an in-process run spell the knobs identically. The
// drivers' rates and annealing schedule are fixed (see
// internal/explore); only the seed and the size of the run are set.
type SearchConfig struct {
	// Seed is the root of every PRNG the driver uses. All randomness is
	// split deterministically from it (per generation, per individual /
	// per chain), so the same seed yields byte-identical fronts at any
	// engine worker count. 0 means the default seed.
	Seed int64 `json:"seed,omitempty"`
	// Budget caps the evaluation requests (sampled estimates plus full
	// promotions) the driver may submit to the engine. Locally
	// deduplicated revisits are free; the driver stops as soon as the
	// budget is exhausted. 0 means the default.
	Budget int `json:"budget,omitempty"`
	// Population is the GA population size, or the number of parallel
	// annealing chains for SA. 0 means the default.
	Population int `json:"population,omitempty"`
}

// DefaultSearchConfig returns the heuristic-search defaults.
func DefaultSearchConfig() SearchConfig {
	return SearchConfig{
		Seed:       1,
		Budget:     4096,
		Population: 32,
	}
}

// Normalize fills unset fields from DefaultSearchConfig and validates
// the result; explicitly invalid values surface as errors instead of
// being silently replaced.
func (c SearchConfig) Normalize() (SearchConfig, error) {
	def := DefaultSearchConfig()
	if c.Seed == 0 {
		c.Seed = def.Seed
	}
	if c.Budget == 0 {
		c.Budget = def.Budget
	}
	if c.Population == 0 {
		c.Population = def.Population
	}
	if err := c.Validate(); err != nil {
		return SearchConfig{}, err
	}
	return c, nil
}

// Validate checks the configuration; zero fields are valid (they mean
// the defaults).
func (c SearchConfig) Validate() error {
	if c.Budget < 0 {
		return fmt.Errorf("core: search Budget must be non-negative")
	}
	if c.Population < 0 {
		return fmt.Errorf("core: search Population must be non-negative")
	}
	return nil
}
