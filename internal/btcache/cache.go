package btcache

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"memorex/internal/obs"
	"memorex/internal/sim"
)

// quarantineDir is the subdirectory damaged entries are moved into,
// and quarantineKeep bounds how many of them are retained (oldest are
// dropped) so a recurring corruption source cannot fill the disk.
const (
	quarantineDir  = "quarantine"
	quarantineKeep = 16
)

// entrySuffix names cache entries: <fingerprint-hex>.btc.
const entrySuffix = ".btc"

// Cache is a persistent, size-bounded store of encoded behavior
// traces, one file per behavior fingerprint. It is safe for concurrent
// use within a process, and the temp-file + rename write protocol
// keeps concurrent processes sharing a directory safe too: a reader
// only ever sees a complete, checksummed entry or none at all.
//
// Every Get fully validates the entry (see Decode); a failed
// validation counts as a miss, moves the damaged file into the
// quarantine/ subdirectory for postmortem inspection, and lets the
// caller recapture. The cache therefore never changes results — only
// how often Phase A capture actually runs.
type Cache struct {
	dir   string
	limit int64 // byte budget, 0 = unbounded

	mu    sync.Mutex // guards eviction scans and the bytes gauge
	bytes int64      // last known live-entry total

	// reg holds every cache counter, never nil after Open; the handles
	// below are its instruments.
	reg                                           *obs.Registry
	hits, misses, puts, putErrors, evict, corrupt *obs.Counter
	bytesGauge                                    *obs.Gauge
}

// Stats is a snapshot of the cache counters, read from the cache's
// metrics registry (see WithMetrics).
type Stats struct {
	// Hits and Misses count Get outcomes; CorruptQuarantined is the
	// subset of misses caused by an entry failing validation.
	Hits, Misses int64
	// Puts counts entries written; PutErrors counts writes that failed
	// (the capture still succeeds — the entry is just not persisted).
	Puts, PutErrors int64
	// Evictions counts entries removed by the size bound.
	Evictions          int64
	CorruptQuarantined int64
	// BytesOnDisk is the live entry total after the last scan.
	BytesOnDisk int64
}

// Option configures a Cache.
type Option func(*Cache)

// WithLimit bounds the cache's on-disk size in bytes; the
// least-recently-used entries (by file mtime, refreshed on every hit)
// are evicted once the bound is exceeded. 0 means unbounded.
func WithLimit(bytes int64) Option {
	return func(c *Cache) { c.limit = bytes }
}

// WithMetrics sets the metrics registry the cache counts in:
// btcache/hits, btcache/misses, btcache/puts, btcache/put_errors,
// btcache/evictions, btcache/corrupt_quarantined and the
// btcache/bytes_on_disk gauge. Without it (or with a nil registry) the
// cache counts in a private registry of its own.
func WithMetrics(r *obs.Registry) Option {
	return func(c *Cache) { c.reg = r }
}

// Open creates (if needed) and opens a cache directory.
func Open(dir string, opts ...Option) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("btcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("btcache: %w", err)
	}
	c := &Cache{dir: dir}
	for _, opt := range opts {
		opt(c)
	}
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	c.hits = c.reg.Counter("btcache/hits")
	c.misses = c.reg.Counter("btcache/misses")
	c.puts = c.reg.Counter("btcache/puts")
	c.putErrors = c.reg.Counter("btcache/put_errors")
	c.evict = c.reg.Counter("btcache/evictions")
	c.corrupt = c.reg.Counter("btcache/corrupt_quarantined")
	c.bytesGauge = c.reg.Gauge("btcache/bytes_on_disk")
	c.mu.Lock()
	c.rescanLocked()
	c.evictLocked()
	c.mu.Unlock()
	return c, nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	bytes := c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:               c.hits.Value(),
		Misses:             c.misses.Value(),
		Puts:               c.puts.Value(),
		PutErrors:          c.putErrors.Value(),
		Evictions:          c.evict.Value(),
		CorruptQuarantined: c.corrupt.Value(),
		BytesOnDisk:        bytes,
	}
}

// String renders the counters as a one-line summary for the CLIs.
func (c *Cache) String() string {
	s := c.Stats()
	return fmt.Sprintf("btcache %s: %d hits, %d misses (%d corrupt quarantined), %d puts, %d evictions, %d bytes on disk",
		c.dir, s.Hits, s.Misses, s.CorruptQuarantined, s.Puts, s.Evictions, s.BytesOnDisk)
}

// entryName returns the file name of a fingerprint's entry.
func entryName(fp uint64) string { return fmt.Sprintf("%016x%s", fp, entrySuffix) }

// Get loads and validates the entry for a fingerprint. A missing file,
// a read error or a failed validation is a miss; validation failures
// additionally quarantine the damaged file. The returned trace is
// freshly allocated and safe for concurrent replay.
func (c *Cache) Get(fp uint64) (*sim.BehaviorTrace, bool) {
	if c == nil {
		return nil, false
	}
	path := filepath.Join(c.dir, entryName(fp))
	data, err := os.ReadFile(path)
	if err != nil {
		c.misses.Inc()
		return nil, false
	}
	bt, err := Decode(data, fp)
	if err != nil {
		c.quarantine(entryName(fp), int64(len(data)))
		c.misses.Inc()
		return nil, false
	}
	// Refresh the mtime so eviction is least-recently-*used*; a failure
	// (e.g. the entry was just evicted) degrades to FIFO, nothing more.
	now := time.Now()
	os.Chtimes(path, now, now)
	c.hits.Inc()
	return bt, true
}

// Put atomically persists a behavior trace under its fingerprint: the
// entry is written to a temp file in the cache directory, synced, and
// renamed into place, so a crash or a concurrent reader can never
// observe a torn entry. Errors are returned for observability but are
// safe to ignore — a failed Put only costs a future recapture.
func (c *Cache) Put(fp uint64, bt *sim.BehaviorTrace) error {
	if c == nil {
		return nil
	}
	err := c.put(fp, bt)
	if err != nil {
		c.putErrors.Inc()
		return err
	}
	c.puts.Inc()
	return nil
}

func (c *Cache) put(fp uint64, bt *sim.BehaviorTrace) error {
	data := Encode(bt, fp)
	tmp, err := os.CreateTemp(c.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("btcache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("btcache: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("btcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("btcache: %w", err)
	}
	path := filepath.Join(c.dir, entryName(fp))

	c.mu.Lock()
	defer c.mu.Unlock()
	var old int64
	if fi, err := os.Stat(path); err == nil {
		old = fi.Size()
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("btcache: %w", err)
	}
	c.setBytesLocked(c.bytes - old + int64(len(data)))
	c.evictLocked()
	return nil
}

// quarantine moves a damaged entry aside (into quarantine/, capped at
// quarantineKeep files) so it stays available for postmortem debugging
// without being retried or counted against the cache budget.
func (c *Cache) quarantine(name string, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	src := filepath.Join(c.dir, name)
	qdir := filepath.Join(c.dir, quarantineDir)
	moved := false
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if err := os.Rename(src, filepath.Join(qdir, name)); err == nil {
			moved = true
			c.pruneQuarantineLocked(qdir)
		}
	}
	if !moved {
		os.Remove(src)
	}
	c.setBytesLocked(c.bytes - size)
	c.corrupt.Inc()
}

// pruneQuarantineLocked drops the oldest quarantined files beyond the
// retention cap.
func (c *Cache) pruneQuarantineLocked(qdir string) {
	files := scanEntries(qdir)
	for i := 0; len(files)-i > quarantineKeep; i++ {
		os.Remove(filepath.Join(qdir, files[i].name))
	}
}

// fileInfo is one live entry seen by a directory scan.
type fileInfo struct {
	name  string
	size  int64
	mtime time.Time
}

// scanEntries lists a directory's cache entries oldest-first.
func scanEntries(dir string) []fileInfo {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var files []fileInfo
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != entrySuffix {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, fileInfo{name: e.Name(), size: fi.Size(), mtime: fi.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].name < files[j].name
	})
	return files
}

// rescanLocked refreshes the live-byte total from the directory.
func (c *Cache) rescanLocked() {
	var total int64
	for _, f := range scanEntries(c.dir) {
		total += f.size
	}
	c.setBytesLocked(total)
}

// evictLocked removes least-recently-used entries until the cache fits
// its byte budget. The scan rereads the directory, so entries written
// by other processes sharing the cache are accounted and evictable too.
func (c *Cache) evictLocked() {
	if c.limit <= 0 || c.bytes <= c.limit {
		return
	}
	files := scanEntries(c.dir)
	var total int64
	for _, f := range files {
		total += f.size
	}
	for _, f := range files {
		if total <= c.limit {
			break
		}
		if err := os.Remove(filepath.Join(c.dir, f.name)); err != nil {
			continue
		}
		total -= f.size
		c.evict.Inc()
	}
	c.setBytesLocked(total)
}

// setBytesLocked updates the live-byte total and its gauge.
func (c *Cache) setBytesLocked(n int64) {
	if n < 0 {
		n = 0
	}
	c.bytes = n
	c.bytesGauge.Set(float64(n))
}
