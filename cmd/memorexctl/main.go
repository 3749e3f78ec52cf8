// Command memorexctl is the client of the memorexd exploration
// daemon: it submits exploration jobs, polls their status, streams
// their events and fetches their reports over the job API
// (see internal/jobapi).
//
// Usage:
//
//	memorexctl submit [-server URL] [-tenant NAME] [-bench B] [-scale N]
//	                  [-seed N] [-keep N] [-cap N]
//	                  [-strategy full|pruned|neighborhood|ga|sa]
//	                  [-search-seed N] [-search-budget N] [-search-population N]
//	                  [-scenario power|cost|perf -limit V]
//	                  [-wait] [-follow] [-out FILE]
//	memorexctl job    [-server URL] ID     print one job (report once done)
//	memorexctl jobs   [-server URL]        list jobs, newest first
//	memorexctl wait   [-server URL] ID     poll until the job is terminal
//	memorexctl cancel [-server URL] ID     cancel a queued or running job
//	memorexctl events [-server URL] ID     stream the job's events as JSONL
//	memorexctl health [-server URL]        daemon health summary
//
// submit posts a memorex.ExploreRequest built from the flags; with
// -wait (implied by -out and -follow) it polls until the job finishes
// and prints the report JSON to stdout (or -out). Flags left at their
// "inherit" defaults (-keep 0, -cap -1) defer to the daemon's own
// configuration.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"memorex"
	"memorex/internal/cliutil"
	"memorex/internal/jobapi"
	"memorex/internal/obs"
)

func main() { os.Exit(run()) }

func usage() {
	fmt.Fprintln(os.Stderr, "usage: memorexctl {submit|job|jobs|wait|cancel|events|health} [flags] [ID]")
	fmt.Fprintln(os.Stderr, "run a subcommand with -h for its flags")
}

func run() int {
	cliutil.Init("memorexctl")
	if len(os.Args) < 2 {
		usage()
		return 2
	}
	ctx, cancel := cliutil.SignalContext()
	defer cancel()
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(ctx, args)
	case "job":
		err = cmdJob(ctx, args)
	case "jobs":
		err = cmdJobs(ctx, args)
	case "wait":
		err = cmdWait(ctx, args)
	case "cancel":
		err = cmdCancel(ctx, args)
	case "events":
		err = cmdEvents(ctx, args)
	case "health":
		err = cmdHealth(ctx, args)
	default:
		usage()
		return 2
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

// newFlagSet builds a subcommand flag set with the server flags
// installed.
func newFlagSet(name string, sv *cliutil.ServerFlags) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	sv.Register(fs)
	return fs
}

// jobArg parses the trailing job-id argument.
func jobArg(fs *flag.FlagSet) (string, error) {
	if fs.NArg() != 1 {
		return "", fmt.Errorf("expected exactly one job id, got %d args", fs.NArg())
	}
	return fs.Arg(0), nil
}

// printJSON writes v to stdout, indented.
func printJSON(v interface{}) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func cmdSubmit(ctx context.Context, args []string) error {
	var sv cliutil.ServerFlags
	fs := newFlagSet("submit", &sv)
	var wl cliutil.WorkloadFlags
	wl.Register(fs)
	var sf cliutil.SearchFlags
	sf.Register(fs)
	reqPath := fs.String("req", "", "submit this ExploreRequest JSON file instead of building one from flags")
	keep := fs.Int("keep", 0, "designs kept per memory architecture (0 = daemon default)")
	assignCap := fs.Int("cap", -1, "max connectivity assignments per clustering level (-1 = daemon default, 0 = exhaustive)")
	scenario := fs.String("scenario", "", "constrained selection: power, cost or perf")
	limit := fs.Float64("limit", 0, "constraint value for -scenario (nJ, gates or cycles)")
	wait := fs.Bool("wait", false, "poll until the job finishes and print the report JSON")
	poll := fs.Duration("poll", 500*time.Millisecond, "poll interval for -wait")
	out := fs.String("out", "", "write the finished report JSON to this file (implies -wait)")
	follow := fs.Bool("follow", false, "stream the job's events to stderr while waiting (implies -wait)")
	fs.Parse(args)

	var req memorex.ExploreRequest
	if *reqPath != "" {
		blob, err := os.ReadFile(*reqPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(blob, &req); err != nil {
			return fmt.Errorf("%s: %w", *reqPath, err)
		}
	} else {
		req = memorex.ExploreRequest{
			Benchmark:   wl.Bench,
			KeepPerArch: *keep,
			Strategy:    sf.Strategy,
		}
		cfg := wl.Config()
		req.Workload = &cfg
		if *assignCap >= 0 {
			req.MaxAssignPerLevel = assignCap
		}
		if sf.Strategy != "" {
			search := sf.Config(wl.Seed)
			req.Search = &search
		}
		if *scenario != "" {
			req.Constraints = []memorex.Constraint{{Scenario: *scenario, Limit: *limit}}
		}
	}

	c := sv.Client()
	jb, err := c.Submit(ctx, req)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "submitted %s (%s, tenant %s)\n", jb.ID, jb.State, jb.Tenant)
	if !*wait && *out == "" && !*follow {
		fmt.Println(jb.ID)
		return nil
	}

	if *follow {
		evDone := make(chan struct{})
		go func() {
			defer close(evDone)
			enc := json.NewEncoder(os.Stderr)
			err := c.Events(ctx, jb.ID, func(ev obs.Event) error { return enc.Encode(ev) })
			if err != nil && ctx.Err() == nil {
				log.Printf("events: %v", err)
			}
		}()
		defer func() { <-evDone }()
	}

	jb, err = c.Wait(ctx, jb.ID, *poll)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: %s\n", jb.ID, describe(jb))
	if jb.State != jobapi.StateDone {
		return fmt.Errorf("job %s %s: %s", jb.ID, jb.State, jb.Error)
	}
	if *out != "" {
		if err := os.WriteFile(*out, jb.Report, 0o644); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", *out)
		return nil
	}
	_, err = os.Stdout.Write(jb.Report)
	return err
}

// describe summarizes a job's outcome for the status line.
func describe(jb jobapi.Job) string {
	s := string(jb.State)
	if jb.Started != nil && jb.Finished != nil {
		s += fmt.Sprintf(" in %s", jb.Finished.Sub(*jb.Started).Round(time.Millisecond))
	}
	if jb.Error != "" {
		s += ": " + jb.Error
	}
	return s
}

func cmdJob(ctx context.Context, args []string) error {
	var sv cliutil.ServerFlags
	fs := newFlagSet("job", &sv)
	fs.Parse(args)
	id, err := jobArg(fs)
	if err != nil {
		return err
	}
	jb, err := sv.Client().Job(ctx, id)
	if err != nil {
		return err
	}
	return printJSON(jb)
}

func cmdJobs(ctx context.Context, args []string) error {
	var sv cliutil.ServerFlags
	fs := newFlagSet("jobs", &sv)
	fs.Parse(args)
	jobs, err := sv.Client().Jobs(ctx)
	if err != nil {
		return err
	}
	for _, jb := range jobs {
		fmt.Printf("%-12s %-10s %-10s %s\n", jb.ID, jb.State, jb.Tenant, describe(jb))
	}
	return nil
}

func cmdWait(ctx context.Context, args []string) error {
	var sv cliutil.ServerFlags
	fs := newFlagSet("wait", &sv)
	poll := fs.Duration("poll", 500*time.Millisecond, "poll interval")
	fs.Parse(args)
	id, err := jobArg(fs)
	if err != nil {
		return err
	}
	jb, err := sv.Client().Wait(ctx, id, *poll)
	if err != nil {
		return err
	}
	return printJSON(jb)
}

func cmdCancel(ctx context.Context, args []string) error {
	var sv cliutil.ServerFlags
	fs := newFlagSet("cancel", &sv)
	fs.Parse(args)
	id, err := jobArg(fs)
	if err != nil {
		return err
	}
	jb, err := sv.Client().Cancel(ctx, id)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s\n", jb.ID, jb.State)
	return nil
}

func cmdEvents(ctx context.Context, args []string) error {
	var sv cliutil.ServerFlags
	fs := newFlagSet("events", &sv)
	fs.Parse(args)
	id, err := jobArg(fs)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	return sv.Client().Events(ctx, id, func(ev obs.Event) error { return enc.Encode(ev) })
}

func cmdHealth(ctx context.Context, args []string) error {
	var sv cliutil.ServerFlags
	fs := newFlagSet("health", &sv)
	fs.Parse(args)
	h, err := sv.Client().Health(ctx)
	if err != nil {
		return err
	}
	return printJSON(h)
}
