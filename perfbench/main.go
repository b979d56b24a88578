// Command perfbench is splidt's benchmark: it runs one named workload
// against the sharded engine for a fixed window, checks the engine's
// outputs, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics from a traced window and an outside-in ladder) as a
// JSON object on the last line of standard output. README.md describes the
// workloads and every metric.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload saturate --seed 1 --seconds 10 --trace 0
//
// It exits 1 when an output check fails and 2 when the run cannot be
// carried out.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:]))
}

func cli(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: saturate, paced_digest or control_loop")
	seed := fs.Int64("seed", 1, "seed of the generated traffic and the trained trees")
	seconds := fs.Int("seconds", 10, "length of the measured window, in seconds")
	traceFlag := fs.Int("trace", 0, "1: also run a traced window and the layer ladder, and print the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		if err == nil {
			err = fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	opt := options{seconds: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1}
	if opt.traced {
		opt.spanPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.tsv.gz", sp.name, *seed))
	}
	provenance(os.Stdout, sp, *seed, *seconds, opt.traced)
	res, err := benchmark(sp, *seed, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := emit(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// benchmark runs the workload, checks its outputs and assembles the
// result; check failures are printed to standard error and clear
// Correct.
func benchmark(sp spec, seed int64, opt options) (result, error) {
	out, err := execute(sp, seed, opt)
	if err != nil {
		return result{}, err
	}
	v := check(out)
	res := result{Metrics: endToEnd(out)}
	for _, n := range out.offered {
		res.Attempted += n
	}
	res.Failed = int64(out.final.Stats.Collisions) + out.final.QuarantineDropped + out.final.DiscardedStaged + int64(len(out.feedErrs))
	for _, k := range []string{"pps", "cpu_us_per_pkt", "heap_peak_mb", "setup_s"} {
		v.expect(res.Metrics[k].Value > 0, "end-to-end metric %s measured nothing (%v)", k, res.Metrics[k].Value)
	}
	lat := out.cons.lat[out.untraced.k]
	v.expect(lat.n > 0, "no digest was received in the window")
	fmt.Printf("# digest latency (due -> receipt, reported not gated): p50 %.4f ms, p99 %.4f ms, %d digests\n",
		lat.quantile(0.50), lat.quantile(0.99), lat.n)
	if opt.traced {
		// The engine's table is no longer needed; the ladder builds its own.
		out.rig.eng, out.rig.sess = nil, nil
		l, err := runLadder(out.rig)
		if err != nil {
			return result{}, err
		}
		res.Metrics = perLayer(out, l)
		reconcile(os.Stdout, out, l, res.Metrics)
		if opt.spanPath != "" {
			if err := writeSpans(opt.spanPath, out.recs); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			} else {
				fmt.Printf("# spans written to %s\n", opt.spanPath)
			}
		}
	}
	for _, k := range finite(res.Metrics) {
		v.expect(false, "metric %s is not finite", k)
	}
	for _, f := range v.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	res.Correct = v.ok()
	return res, nil
}
