package experiments

import (
	"context"
	"strings"

	"memorex/internal/apex"
	"memorex/internal/explore"
)

// SearchResult extends Table 2 with the heuristic drivers: the GA and
// SA strategies measured against the Full ground truth on compress.
type SearchResult struct {
	Comparison *explore.Comparison
}

// Search runs the Full, GA and SA strategies on compress and compares
// the heuristic fronts against the exhaustive truth. The enumeration
// cap is lifted (the heuristic drivers walk the full cross-product
// space, so the ground truth must too) and each heuristic gets an
// evaluation budget of 25% of Full's simulations — the economy the
// drivers are designed for. Each strategy runs on a private engine, so
// the work columns measure what each would cost on its own.
func Search(ctx context.Context, opt Options) (*SearchResult, error) {
	t, err := benchTrace("compress", opt.Table2TraceLimit)
	if err != nil {
		return nil, err
	}
	apexRes, err := apex.ExploreContext(ctx, t, nil, opt.Table2APEX, workers(opt.Table2ConEx))
	if err != nil {
		return nil, err
	}
	space := explore.BuildSpace(apexRes)
	cfg := opt.Table2ConEx
	cfg.MaxAssignPerLevel = 0
	full, err := explore.Run(ctx, t, space, explore.Full, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Search.Seed = 42
	cfg.Search.Budget = int(full.Stats.Simulations / 4)
	ga, err := explore.Run(ctx, t, space, explore.GA, cfg)
	if err != nil {
		return nil, err
	}
	sa, err := explore.Run(ctx, t, space, explore.SA, cfg)
	if err != nil {
		return nil, err
	}
	return &SearchResult{Comparison: explore.Compare("compress", full, ga, sa)}, nil
}

// String renders the heuristic-search comparison.
func (r *SearchResult) String() string {
	var b strings.Builder
	b.WriteString("Heuristic search: GA and SA against the Full truth (budget = 25% of Full)\n\n")
	b.WriteString(r.Comparison.String())
	return b.String()
}
