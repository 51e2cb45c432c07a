// Command placer places an analog netlist from a JSON file (or a built-in
// benchmark circuit) with any of the three placement methods the library
// implements, and writes the legal placement as JSON.
//
// Usage:
//
//	placer -circuit CC-OTA -method eplace-a
//	placer -in mydesign.json -method sa -out placed.json
//	placer -circuit VGA -method eplace-a -perf       (trains a GNN first)
//	placer -circuit Adder -dump-netlist              (emit the JSON schema)
//	placer -circuit CC-OTA -trace t.jsonl -v         (telemetry + progress)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/netio"
	"repro/internal/obs"
	"repro/internal/refine"
	"repro/internal/testcircuits"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("placer: ")
	var (
		inPath  = flag.String("in", "", "netlist JSON file (see -dump-netlist for the schema)")
		name    = flag.String("circuit", "", "built-in benchmark circuit name (see -list)")
		method  = flag.String("method", "eplace-a", "placement method: sa | prev | eplace-a")
		outPath = flag.String("out", "", "write placement JSON here (default stdout)")
		seed    = flag.Int64("seed", 1, "random seed")
		threads = flag.Int("threads", runtime.NumCPU(), "how many SA chains may run at once; eplace-a and prev run single-threaded (results are bit-identical at any count)")
		perf    = flag.Bool("perf", false, "performance-driven variant (built-in circuits only; trains a GNN)")
		list    = flag.Bool("list", false, "list built-in benchmark circuits")
		dumpNet = flag.Bool("dump-netlist", false, "write the selected circuit's netlist JSON and exit")
		svgPath = flag.String("svg", "", "additionally render the placement to this SVG file")
		timeout = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit), e.g. 30s or 5m")

		chains    = flag.Int("chains", 0, "SA portfolio width: independent chains run in parallel, best kept (0 = 2 chains cold, 1 warm; results are thread-count invariant)")
		refine    = flag.Bool("refine", false, "append the ILP large-neighborhood refinement stage (never worsens HPWL or area)")
		refineWin = flag.Int("refine-windows", 0, "refinement window budget (0 = about two sweeps); implies nothing unless -refine is set")

		warmStart = flag.String("warm-start", "", "prior placement JSON: run an incremental (ECO) re-solve anchored to it")
		warmBase  = flag.String("warm-base", "", "netlist the -warm-start placement was solved for (file, built-in, or gen: spec; default: the input netlist)")

		tracePath  = flag.String("trace", "", "write a JSONL telemetry trace (spans, solver iterations, counters) here")
		verbose    = flag.Bool("v", false, "periodic human-readable progress on stderr")
		progEvery  = flag.Int("progress-every", 100, "with -v, print every Nth solver iteration")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile here")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile here")
	)
	flag.Parse()

	if *list {
		for _, nm := range testcircuits.Names() {
			fmt.Println(nm)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var sinks []obs.Sink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		sinks = append(sinks, obs.NewJSONLSink(f))
	}
	if *verbose {
		sinks = append(sinks, obs.NewProgressSink(os.Stderr, *progEvery))
	}
	var tracer *obs.Tracer
	if len(sinks) > 0 {
		tracer = obs.New(sinks...)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	err := run(ctx, runConfig{
		inPath: *inPath, name: *name, method: *method,
		outPath: *outPath, svgPath: *svgPath,
		seed: *seed, threads: *threads, perf: *perf, dumpNet: *dumpNet,
		chains: *chains, refine: *refine, refineWindows: *refineWin,
		warmStart: *warmStart, warmBase: *warmBase,
		tracer: tracer,
	})
	if cerr := tracer.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("closing trace: %w", cerr)
	}
	if *memProfile != "" && err == nil {
		err = writeHeapProfile(*memProfile)
	}
	if err != nil {
		pprof.StopCPUProfile() // log.Fatal skips deferred calls
		log.Fatal(err)
	}
}

// runConfig carries the flag values into run.
type runConfig struct {
	inPath, name, method string
	outPath, svgPath     string
	seed                 int64
	threads              int
	perf, dumpNet        bool
	chains               int
	refine               bool
	refineWindows        int
	warmStart, warmBase  string
	tracer               *obs.Tracer
}

// run executes the placement flow; all fallible work lives here so main
// can release the profiler and tracer on every exit path.
func run(ctx context.Context, cfg runConfig) error {
	inPath, name, method := cfg.inPath, cfg.name, cfg.method
	outPath, svgPath := cfg.outPath, cfg.svgPath
	seed, threads, perf, dumpNet := cfg.seed, cfg.threads, cfg.perf, cfg.dumpNet
	tracer := cfg.tracer
	if inPath == "" && name == "" {
		return fmt.Errorf("need -in FILE or -circuit NAME (try -list)")
	}
	n, cs, err := netio.Load(inPath, name)
	if err != nil {
		return err
	}

	// writeOut routes output to -out or stdout, failing loudly on any
	// write or close error so a truncated placement can never be silently
	// reported as success.
	writeOut := func(write func(io.Writer) error) error {
		if outPath == "" {
			return write(os.Stdout)
		}
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", outPath, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing %s: %w", outPath, err)
		}
		return nil
	}

	if dumpNet {
		return writeOut(n.WriteJSON)
	}

	m, err := core.ParseMethod(method)
	if err != nil {
		return err
	}

	opt := core.Options{Seed: seed, Tracer: tracer, Threads: threads, Chains: cfg.chains}
	if cfg.refine {
		opt.Refine = &refine.Options{Windows: cfg.refineWindows}
	}
	if cfg.warmStart != "" {
		ws, err := loadWarmStart(n, cfg)
		if err != nil {
			return err
		}
		opt.WarmStart = ws
	} else if cfg.warmBase != "" {
		return fmt.Errorf("-warm-base needs -warm-start")
	}
	if perf {
		if cs == nil {
			return fmt.Errorf("-perf needs a built-in circuit (the GNN trains against its performance model)")
		}
		log.Print("training performance GNN...")
		model, stats, err := core.TrainPerfGNNCtx(ctx, n, cs.Perf, 0, core.TrainOptions{Seed: seed, Tracer: tracer})
		if err != nil {
			return err
		}
		log.Printf("trained (validation accuracy %.2f)", stats.ValAccuracy)
		opt.Perf = &core.PerfTerm{Model: model}
	}

	res, err := core.PlaceCtx(ctx, n, m, opt)
	if err != nil {
		return err
	}
	log.Printf("%s: area %.1f µm², HPWL %.1f µm, %.2fs, legal=%v",
		res.Method, res.AreaUM2, res.HPWLUM, res.Runtime.Seconds(), res.Legal)
	if opt.WarmStart != nil {
		log.Printf("warm start: %d anchored, %d perturbed of %d devices",
			res.WarmAnchored, res.WarmPerturbed, len(n.Devices))
	}
	if cs != nil {
		log.Printf("FOM %.3f", cs.Perf.FOM(n, res.Placement))
	}
	if err := writeOut(func(w io.Writer) error {
		return n.WritePlacementJSON(w, res.Placement)
	}); err != nil {
		return err
	}
	if svgPath != "" {
		f, err := os.Create(svgPath)
		if err != nil {
			return err
		}
		if err := n.WriteSVG(f, res.Placement); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", svgPath, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing %s: %w", svgPath, err)
		}
		log.Printf("wrote %s", svgPath)
	}
	return nil
}

// loadWarmStart reads the prior placement document and resolves the base
// netlist it belongs to (the input netlist itself unless -warm-base names
// another source).
func loadWarmStart(n *circuit.Netlist, cfg runConfig) (*core.WarmStart, error) {
	f, err := os.Open(cfg.warmStart)
	if err != nil {
		return nil, err
	}
	doc, err := circuit.ReadPlacementDoc(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.warmStart, err)
	}
	base := n
	if cfg.warmBase != "" {
		base, err = netio.Resolve(cfg.warmBase)
		if err != nil {
			return nil, fmt.Errorf("-warm-base %s: %w", cfg.warmBase, err)
		}
	}
	prior, err := netio.PlacementForNetlist(base, doc)
	if err != nil {
		return nil, err
	}
	ws := &core.WarmStart{Placement: prior}
	if cfg.warmBase != "" {
		ws.Base = base
	}
	return ws, nil
}

// writeHeapProfile snapshots the heap after a final GC, the profile most
// useful for sizing solver allocations.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
