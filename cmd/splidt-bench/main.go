// Command splidt-bench regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports.
//
// Usage:
//
//	splidt-bench -exp fig2 -dataset 1,2,3
//	splidt-bench -exp all -iters 16
//
// Experiments: fig2, tab1, fig6 (includes tab3), fig7, tab4, tab5, fig8a,
// fig8b, fig8c, fig9, fig10, fig11, fig12, all.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"splidt/internal/experiments"
	"splidt/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("splidt-bench: ")

	var (
		exp      = flag.String("exp", "all", "experiment id (fig2, tab1, fig6, fig7, tab4, tab5, fig8a/b/c, fig9, fig10, fig11, fig12, all)")
		datasets = flag.String("dataset", "", "comma-separated dataset numbers (default: the paper's set per experiment)")
		nFlows   = flag.Int("flows", 0, "generated flows per dataset (0 = default)")
		iters    = flag.Int("iters", 12, "BO iterations per design search")
		parallel = flag.Int("parallel", 8, "parallel evaluations per iteration")
		seed     = flag.Int64("seed", 1, "seed")
	)
	flag.Parse()

	ids, err := parseDatasets(*datasets)
	if err != nil {
		log.Fatal(err)
	}
	mkEnv := func(id trace.DatasetID) *experiments.Env {
		env := experiments.NewEnv(id, *nFlows)
		env.BOIterations = *iters
		env.BOParallel = *parallel
		env.Seed = *seed
		return env
	}

	run := func(name string) {
		switch name {
		case "fig2":
			for _, id := range pick(ids, trace.D1, trace.D2, trace.D3) {
				r, err := experiments.Figure2(mkEnv(id))
				check(err)
				fmt.Println(r.Render())
			}
		case "tab1":
			for _, id := range pick(ids, trace.D1, trace.D2, trace.D3) {
				r, err := experiments.Table1(mkEnv(id))
				check(err)
				fmt.Println(r.Render())
			}
		case "fig6", "tab3":
			for _, id := range pick(ids, trace.AllDatasets()...) {
				r, err := experiments.Fig6Table3(mkEnv(id))
				check(err)
				fmt.Println(r.Render())
			}
		case "fig7":
			for _, id := range pick(ids, trace.AllDatasets()...) {
				r := experiments.Figure7(mkEnv(id))
				fmt.Println(r.Render())
			}
		case "tab4":
			for _, id := range pick(ids, trace.AllDatasets()...) {
				r, err := experiments.Table4(mkEnv(id))
				check(err)
				fmt.Println(r.Render())
			}
		case "tab5":
			for _, id := range pick(ids, trace.AllDatasets()...) {
				r, err := experiments.Table5(mkEnv(id))
				check(err)
				fmt.Println(r.Render())
			}
		case "fig8a":
			for _, id := range pick(ids, trace.D2) {
				r, err := experiments.Figure8(mkEnv(id), "depth", []int{10, 20, 30})
				check(err)
				fmt.Println(r.Render())
			}
		case "fig8b":
			for _, id := range pick(ids, trace.D2) {
				r, err := experiments.Figure8(mkEnv(id), "partitions", []int{1, 3, 5})
				check(err)
				fmt.Println(r.Render())
			}
		case "fig8c":
			for _, id := range pick(ids, trace.D2) {
				r, err := experiments.Figure8(mkEnv(id), "features", []int{1, 2, 3})
				check(err)
				fmt.Println(r.Render())
			}
		case "fig9":
			for _, id := range pick(ids, trace.D2, trace.D3) {
				r, err := experiments.Figure9(mkEnv(id))
				check(err)
				fmt.Println(r.Render())
			}
		case "fig10":
			for _, id := range pick(ids, trace.D3) {
				for _, w := range trace.Workloads() {
					r, err := experiments.Figure10(mkEnv(id), w)
					check(err)
					fmt.Println(r.Render())
				}
			}
		case "fig11":
			fmt.Println(experiments.Figure11(50, []int{1, 2, 3, 4}).Render())
		case "fig12":
			for _, id := range pick(ids, trace.D3) {
				r, err := experiments.Figure12(mkEnv(id), []int{32, 16, 8})
				check(err)
				fmt.Println(r.Render())
			}
		default:
			log.Fatalf("unknown experiment %q", name)
		}
	}

	if *exp == "all" {
		for _, name := range []string{
			"fig2", "tab1", "fig6", "fig7", "tab4", "tab5",
			"fig8a", "fig8b", "fig8c", "fig9", "fig10", "fig11", "fig12",
		} {
			fmt.Printf("==== %s ====\n", name)
			run(name)
		}
		return
	}
	run(*exp)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// pick returns the user-selected datasets, or the experiment's defaults.
func pick(user []trace.DatasetID, defaults ...trace.DatasetID) []trace.DatasetID {
	if len(user) > 0 {
		return user
	}
	return defaults
}

func parseDatasets(s string) ([]trace.DatasetID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []trace.DatasetID
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 || v > 7 {
			return nil, fmt.Errorf("bad dataset %q (want 1-7)", tok)
		}
		out = append(out, trace.DatasetID(v))
	}
	return out, nil
}
