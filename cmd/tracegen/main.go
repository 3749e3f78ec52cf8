// Command tracegen generates a benchmark memory trace, saves it in the
// compressed MTR2 binary format, or inspects an existing trace file
// (MTR1 or MTR2).
//
// Usage:
//
//	tracegen -bench compress -o compress.mtr           # generate + save
//	tracegen -inspect compress.mtr                     # summarize a file
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"memorex/internal/cliutil"
	"memorex/internal/profile"
	"memorex/internal/trace"
)

func main() {
	cliutil.Init("tracegen")
	var wl cliutil.WorkloadFlags
	wl.Register(flag.CommandLine)
	out := flag.String("o", "", "output file; empty = just summarize")
	inspect := flag.String("inspect", "", "inspect an existing trace file instead of generating")
	flag.Parse()

	// -inspect is tracegen's historical spelling of cliutil's -trace.
	wl.TracePath = *inspect
	t, err := wl.Load()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trace %q: %d accesses, %d data structures\n", t.Name, t.NumAccesses(), len(t.DS)-1)
	p := profile.Analyze(t)
	for _, s := range p.Stats {
		fmt.Printf("  %-10s %9d accesses %6.1f%%  %-13s footprint=%dB chain=%.2f\n",
			s.Name, s.Count, 100*s.Share(p.Total), s.Class, s.FootprintBytes, s.ChainRatio)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.Write(f, t); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		info, err := os.Stat(*out)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *out, info.Size())
	}
}
