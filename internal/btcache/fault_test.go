package btcache

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/sim"
	"memorex/internal/workload"
)

// replayFigures runs a connectivity replay of a behavior trace and
// returns the figures the engine would report, so fault tests can
// assert end-to-end result integrity, not just struct equality.
func replayFigures(t *testing.T, bt *sim.BehaviorTrace) (lat, nrg float64) {
	t.Helper()
	res, err := sim.ReplayBatch(bt, []*connect.Arch{testConn(t, bt)})
	if err != nil {
		t.Fatal(err)
	}
	return res[0].AvgLatency(), res[0].AvgEnergy()
}

// TestFaultInjectionSuite is the cache's central correctness gate:
// every canonical corruption of an on-disk entry — version bump,
// zeroed checksum, truncation at every section boundary, trailing
// garbage, bit flips across header and payload — must yield a clean
// miss with the damaged file quarantined, after which a recapture
// stores a fresh entry whose replay matches the original bit-for-bit.
// Zero mutations may produce a trace that replays differently. The
// sampled capture covers 150,000 accesses, so its entry (~63 kB) gets
// about 480 payload bit flips.
func TestFaultInjectionSuite(t *testing.T) {
	bt := captureSlice(t, workload.Compress{}, 150_000, true, true)
	const fp = 0xdeadbeefcafef00d
	data := Encode(bt, fp)
	wantLat, wantNrg := replayFigures(t, bt)

	muts, err := Mutations(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(muts) < 30 {
		t.Fatalf("mutation suite suspiciously small: %d mutations", len(muts))
	}

	var wrongResults int
	for _, m := range muts {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put(fp, bt); err != nil {
				t.Fatal(err)
			}

			// Mangle the entry on disk.
			mangled := m.Apply(data)
			if bytes.Equal(mangled, data) {
				t.Fatalf("mutation %s is the identity", m.Name)
			}
			path := filepath.Join(dir, entryName(fp))
			if err := os.WriteFile(path, mangled, 0o644); err != nil {
				t.Fatal(err)
			}

			got, ok := c.Get(fp)
			if ok {
				// A hit on a mangled entry is only acceptable if it is
				// impossible to distinguish from the truth; any replay
				// divergence is the disaster class this suite exists to
				// rule out.
				lat, nrg := replayFigures(t, got)
				if lat != wantLat || nrg != wantNrg || !reflect.DeepEqual(got, bt) {
					wrongResults++
					t.Fatalf("mangled entry (%s) decoded to a DIFFERENT trace: lat %v vs %v, nrg %v vs %v",
						m.Name, lat, wantLat, nrg, wantNrg)
				}
				t.Fatalf("mangled entry (%s) served as a hit", m.Name)
			}

			// The damaged file must be gone from the live set and
			// quarantined, and the counters must say why.
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged entry still live after the miss (stat err %v)", err)
			}
			if _, err := os.Stat(filepath.Join(dir, quarantineDir, entryName(fp))); err != nil {
				t.Fatalf("damaged entry not quarantined: %v", err)
			}
			st := c.Stats()
			if st.CorruptQuarantined != 1 || st.Misses != 1 {
				t.Fatalf("stats after corruption = %+v, want 1 corrupt quarantine and 1 miss", st)
			}

			// Recovery: recapture (here: re-Put) and the next Get serves
			// the original trace, so it replays identically (replay is a
			// function of the trace).
			if err := c.Put(fp, bt); err != nil {
				t.Fatal(err)
			}
			fresh, ok := c.Get(fp)
			if !ok {
				t.Fatal("recaptured entry missed")
			}
			if !sameTrace(fresh, bt) {
				t.Fatal("recaptured entry differs from the original trace")
			}
		})
	}
	if wrongResults != 0 {
		t.Fatalf("%d mutations produced a wrong BehaviorTrace", wrongResults)
	}
}

// TestCorruptingWriter: a bit flipped in flight by the torn-write
// simulator is caught by decode validation.
func TestCorruptingWriter(t *testing.T) {
	bt := captureWorkload(t, workload.Li{}, false, false)
	const fp = 42
	data := Encode(bt, fp)
	for _, off := range []int64{0, 5, headerSize + 3, int64(len(data) / 2), int64(len(data) - 1)} {
		var buf bytes.Buffer
		cw := &CorruptingWriter{W: &buf, FlipOffset: off, FlipBit: 2}
		// Write in awkward chunk sizes to cross the flip offset.
		for i := 0; i < len(data); i += 7 {
			hi := i + 7
			if hi > len(data) {
				hi = len(data)
			}
			if _, err := cw.Write(data[i:hi]); err != nil {
				t.Fatal(err)
			}
		}
		if bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("CorruptingWriter at %d did not damage the stream", off)
		}
		if _, err := Decode(buf.Bytes(), fp); !IsCorrupt(err) {
			t.Fatalf("flip at %d not caught: %v", off, err)
		}
	}
}
