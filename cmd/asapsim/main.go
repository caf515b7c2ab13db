// Command asapsim runs one workload under one persistence model and prints
// the execution summary and gem5-style statistics.
//
// Usage:
//
//	asapsim -workload cceh -model asap_rp -threads 4 -ops 600
//	asapsim -trace out.json -timeline out.csv -workload atlas_queue
//	asapsim -stats -workload cceh
//	asapsim -save-spec run.json            # capture the flags as a RunSpec
//	asapsim -spec run.json                 # replay a RunSpec exactly
//
// Models: baseline, hops_ep, hops_rp, asap_ep, asap_rp, eadr.
// Workloads: see -list.
//
// -trace writes a Chrome trace-event JSON of the run — open it in
// Perfetto (ui.perfetto.dev) or chrome://tracing. One track per core
// (dfence/lock-wait spans), per persist buffer (epoch activity), and per
// memory controller (flush service); counters record queue occupancies.
// -timeline writes a CSV of occupancy samples (persist buffers, epoch
// tables, WPQs, recovery tables) every -interval cycles.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"asap/internal/checkpoint"
	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/obs"
	"asap/internal/runspec"
	"asap/internal/sim"
	"asap/internal/trace"
	"asap/internal/workload"
)

func main() {
	var (
		wl       = flag.String("workload", "cceh", "workload name (see -list)")
		mdl      = flag.String("model", "asap_rp", "persistence model: "+strings.Join(model.ExtendedNames(), ", "))
		threads  = flag.Int("threads", 4, "software threads (= cores used)")
		ops      = flag.Int("ops", 600, "structure-level operations per thread")
		keyRange = flag.Uint64("keys", 4096, "key universe size")
		valSize  = flag.Int("valuesize", 64, "value size in bytes (16-128 in the paper)")
		seed     = flag.Uint64("seed", 1, "workload generator seed")
		mcs      = flag.Int("mcs", 2, "memory controllers")
		list     = flag.Bool("list", false, "list workloads and exit")
		saveTr   = flag.String("save-trace", "", "write the generated trace to this file and exit")
		loadTr   = flag.String("load-trace", "", "replay a trace file instead of generating one")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto)")
		tlOut    = flag.String("timeline", "", "write a CSV occupancy timeline of the run to this file")
		interval = flag.Uint64("interval", 0, "timeline sampling interval in cycles (0 = default)")
		describe = flag.Bool("stats", false, "print statistics with their registered descriptions")
		specIn   = flag.String("spec", "", "load a RunSpec JSON (overrides workload/model/params flags)")
		specOut  = flag.String("save-spec", "", "write the run's canonical RunSpec JSON to this file and exit")
		ckptOut  = flag.String("checkpoint", "", "advance to -checkpoint-at, save a checkpoint image to this file, then finish the run")
		ckptAt   = flag.Uint64("checkpoint-at", 0, "cycle to checkpoint at")
		ckptIn   = flag.String("restore", "", "restore a checkpoint image and continue the run from it (ignores workload/model flags)")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:", strings.Join(workload.Names(), " "))
		fmt.Println("models:   ", strings.Join(model.ExtendedNames(), " "))
		return
	}

	p := workload.Params{
		Threads:      *threads,
		OpsPerThread: *ops,
		KeyRange:     *keyRange,
		ValueSize:    *valSize,
		Seed:         *seed,
	}
	cfg := config.Default()
	if *threads > cfg.Cores {
		cfg.Cores = *threads
	}
	cfg.MCs = *mcs
	spec := runspec.New(*wl, *mdl, p, cfg)

	if *specIn != "" {
		b, err := os.ReadFile(*specIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		spec, err = runspec.Parse(b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *specIn, err)
			os.Exit(1)
		}
		*wl, *mdl, p, cfg = spec.Workload, spec.Model, spec.Params, spec.Config
	}

	if *specOut != "" {
		canon, err := spec.Canonical()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*specOut, append(canon, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: spec %s, hash %s\n", *specOut, spec, spec.MustHash())
		return
	}

	if *ckptIn != "" {
		img, err := os.ReadFile(*ckptIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		m, err := checkpoint.Load(img)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("restored          %s at cycle %d\n", *ckptIn, m.Eng.Now())
		printRun(m.Trace(), m.Run(0), *describe, "")
		return
	}

	var tr *trace.Trace
	var err error
	if *loadTr != "" {
		f, ferr := os.Open(*loadTr)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		tr, err = trace.Read(f)
		f.Close()
	} else {
		tr, err = workload.Generate(*wl, p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *saveTr != "" {
		f, ferr := os.Create(*saveTr)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		if err := tr.Write(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s: %d threads, %d ops\n", *saveTr, tr.NumThreads(), tr.TotalOps())
		return
	}

	m, err := machine.New(cfg, *mdl, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var col *obs.Collector
	if *traceOut != "" {
		col = obs.NewCollector(m.Eng.Now)
		m.AttachTracer(col)
	}
	var tl *obs.Timeline
	if *tlOut != "" {
		tl = m.EnableTimeline(sim.Cycles(*interval))
	}
	if *ckptOut != "" {
		if col != nil || tl != nil {
			fmt.Fprintln(os.Stderr, "asapsim: -checkpoint cannot be combined with -trace/-timeline")
			os.Exit(1)
		}
		if *ckptAt > 0 {
			m.Advance(*ckptAt)
		}
		img, err := checkpoint.Save(m)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*ckptOut, img, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint        %s at cycle %d (%d bytes)\n", *ckptOut, m.Eng.Now(), len(img))
	}

	res := m.Run(0)
	if col != nil {
		writeArtifact(*traceOut, col.WriteChromeTrace)
	}
	if tl != nil {
		writeArtifact(*tlOut, tl.WriteCSV)
	}

	specHash := ""
	if *loadTr == "" {
		// A generated run is fully described by its spec; the hash is the
		// content address asapd would file this result under.
		specHash = spec.MustHash()
	}
	printRun(tr, res, *describe, specHash)
}

// printRun emits the standard execution summary.
func printRun(tr *trace.Trace, res machine.Result, describe bool, specHash string) {
	fmt.Printf("workload          %s (%d threads, %d trace ops)\n",
		tr.Name, tr.NumThreads(), tr.TotalOps())
	fmt.Printf("model             %s\n", res.ModelName)
	if specHash != "" {
		fmt.Printf("runspec           %s\n", specHash)
	}
	fmt.Printf("execution         %d cycles (%.3f ms @2GHz)\n",
		res.Cycles, float64(res.Cycles)/2e6)
	fmt.Printf("pmWrites          %d\n", res.PMWrites)
	fmt.Printf("pmReads           %d\n", res.PMReads)
	if model.Speculative(res.ModelName) {
		fmt.Printf("rtMaxOccupancy    %d\n", res.RTMaxOcc)
	}
	fmt.Printf("wpqMaxOccupancy   %d\n", res.WPQMaxOcc)
	if describe {
		fmt.Printf("\n--- stats ---\n%s", res.Stats.Describe())
	} else {
		fmt.Printf("\n--- stats ---\n%s", res.Stats)
	}
}

// writeArtifact serializes one run artifact into path via write.
func writeArtifact(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintln(os.Stderr, werr)
		os.Exit(1)
	}
}
