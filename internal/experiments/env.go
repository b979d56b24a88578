// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each artifact has one driver returning a structured
// result plus a text rendering in the paper's row/series format.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"splidt/internal/bo"
	"splidt/internal/core"
	"splidt/internal/metrics"
	"splidt/internal/rangemark"
	"splidt/internal/resources"
	"splidt/internal/trace"
)

// FlowTargets are the concurrency levels the paper reports (Tables 3/5,
// Figures 2/6/8).
var FlowTargets = []int{100_000, 500_000, 1_000_000}

// Env bundles everything one experiment needs: the dataset, its windowed
// sample cache, the hardware profile, and search budgets. Use NewEnv.
type Env struct {
	Dataset trace.DatasetID
	Classes int
	Profile resources.Profile
	Seed    int64

	// NFlows is the number of generated flows (train+test).
	NFlows int
	// TrainFrac splits samples (default 0.7).
	TrainFrac float64
	// BO budget for design searches.
	BOIterations int
	BOParallel   int
	// DisableWarmstart removes the anchor grid from the search — used by
	// the Figure 7 convergence study, which measures how fast BO finds good
	// configurations from scratch.
	DisableWarmstart bool
	// MaxPartitions bounds the window count (paper: 7).
	MaxPartitions int
	// ValueBits is the feature register precision (32 unless sweeping).
	ValueBits int

	set  *trace.SampleSet
	once sync.Once
}

// NewEnv builds an environment with reproduction-scale defaults. nFlows <= 0
// selects a class-proportional default.
func NewEnv(id trace.DatasetID, nFlows int) *Env {
	classes := trace.NumClasses(id)
	if nFlows <= 0 {
		nFlows = 60 * classes
		if nFlows < 400 {
			nFlows = 400
		}
	}
	return &Env{
		Dataset:       id,
		Classes:       classes,
		Profile:       resources.Tofino1(),
		Seed:          1,
		NFlows:        nFlows,
		TrainFrac:     0.7,
		BOIterations:  16,
		BOParallel:    8,
		MaxPartitions: 7,
		ValueBits:     32,
	}
}

// SampleSet lazily generates and caches the windowed datasets.
func (e *Env) SampleSet() *trace.SampleSet {
	e.once.Do(func() {
		e.set = trace.NewSampleSet(e.Dataset, e.NFlows, e.MaxPartitions, e.Seed)
	})
	return e.set
}

// Split returns the train/test windowed samples for a partition count.
func (e *Env) Split(parts int) (train, test []trace.Sample) {
	return trace.Split(e.SampleSet().For(parts), e.TrainFrac)
}

// FlowSplit returns the train/test labelled flows (for per-packet baselines
// and simulator replay).
func (e *Env) FlowSplit() (train, test []trace.LabeledFlow) {
	flows := e.SampleSet().Flows()
	cut := int(float64(len(flows)) * e.TrainFrac)
	return flows[:cut], flows[cut:]
}

// TrainedPoint is one evaluated SpliDT configuration with its artifacts.
type TrainedPoint struct {
	Point    bo.Point
	Model    *core.Model
	Compiled *rangemark.Compiled
	F1       float64
	MaxFlows int
	Feasible bool
}

// EvaluatePoint trains, compiles, scores, and sizes one configuration —
// the black box inside the BO loop (train → rulegen → resource estimation →
// feasibility, Figure 5).
func (e *Env) EvaluatePoint(p bo.Point) TrainedPoint {
	train, test := e.Split(len(p.Partitions))
	q := 0
	if e.ValueBits > 0 && e.ValueBits < 32 {
		q = e.ValueBits
	}
	m, err := core.Train(train, core.Config{
		Partitions:         p.Partitions,
		FeaturesPerSubtree: p.K,
		NumClasses:         e.Classes,
		QuantizeBits:       q,
	})
	if err != nil {
		return TrainedPoint{Point: p}
	}
	c, err := rangemark.Compile(m)
	if err != nil {
		return TrainedPoint{Point: p}
	}

	predicted := make([]int, len(test))
	actual := make([]int, len(test))
	for i, s := range test {
		predicted[i] = m.Classify(s.Windows)
		actual[i] = s.Label
	}
	f1 := metrics.MacroF1Of(actual, predicted, e.Classes)

	vb := resources.ValueBits(m)
	chain := resources.DepChainDepth(m)
	maxFlows := resources.MaxFlowsSpliDT(e.Profile, p.K, vb, chain)
	feasible := maxFlows > 0 && int64(c.Bits()) <= e.Profile.TCAMBits
	return TrainedPoint{
		Point: p, Model: m, Compiled: c,
		F1: f1, MaxFlows: maxFlows, Feasible: feasible,
	}
}

// Objective adapts EvaluatePoint to the BO loop, memoising trained artifacts
// so post-search reporting can recover the winning models.
func (e *Env) Objective(store *sync.Map) bo.Objective {
	return func(p bo.Point) bo.Evaluation {
		tp := e.EvaluatePoint(p)
		if store != nil {
			store.Store(pointID(p), tp)
		}
		return bo.Evaluation{Point: p, F1: tp.F1, Flows: tp.MaxFlows, Feasible: tp.Feasible}
	}
}

func pointID(p bo.Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "d%dk%dp", p.Depth, p.K)
	for _, x := range p.Partitions {
		fmt.Fprintf(&b, "-%d", x)
	}
	return b.String()
}

// Search runs the design search over a space and returns the result plus
// the store of trained artifacts. A warm-start grid anchors the surrogate
// with coverage of the low-k corner (required by high flow targets) through
// deep multi-partition configurations.
func (e *Env) Search(space bo.Space) (bo.Result, *sync.Map) {
	var store sync.Map
	cfg := bo.Config{
		Iterations: e.BOIterations,
		Parallel:   e.BOParallel,
		InitRandom: max(2, e.BOIterations/8),
		Seed:       e.Seed,
		Forest:     bo.DefaultForestConfig(),
	}
	if !e.DisableWarmstart {
		cfg.Warmstart = warmstartGrid(space)
	}
	res := bo.Search(space, e.Objective(&store), cfg)
	return res, &store
}

// warmstartGrid returns a small spread of configurations adapted to the
// space's fixed dimensions.
func warmstartGrid(space bo.Space) []bo.Point {
	base := []bo.Point{
		{Depth: 3, K: 1, Partitions: []int{3}},
		{Depth: 4, K: 2, Partitions: []int{4}},
		{Depth: 6, K: 2, Partitions: []int{3, 3}},
		{Depth: 8, K: 2, Partitions: []int{2, 3, 3}},
		{Depth: 6, K: 4, Partitions: []int{3, 3}},
		{Depth: 9, K: 4, Partitions: []int{3, 3, 3}},
		{Depth: 10, K: 2, Partitions: []int{2, 2, 2, 2, 2}},
		{Depth: 12, K: 6, Partitions: []int{4, 4, 4}},
		{Depth: 20, K: 6, Partitions: []int{4, 4, 4, 4, 4}},
	}
	out := make([]bo.Point, 0, len(base))
	for _, p := range base {
		if space.FixedK != 0 {
			p.K = space.FixedK
		}
		if space.FixedDepth != 0 {
			p.Depth = space.FixedDepth
		}
		nPart := len(p.Partitions)
		if space.FixedPartitions != 0 {
			nPart = space.FixedPartitions
		}
		if nPart > p.Depth {
			nPart = p.Depth
		}
		p.Partitions = evenComposition(p.Depth, nPart)
		out = append(out, p)
	}
	return out
}

// evenComposition splits depth into nPart near-equal positive parts.
func evenComposition(depth, nPart int) []int {
	parts := make([]int, nPart)
	for i := range parts {
		parts[i] = depth / nPart
	}
	for i := 0; i < depth%nPart; i++ {
		parts[i]++
	}
	return parts
}

// BestAtFlows picks, from a finished search, the best-F1 feasible trained
// point that supports at least the given flow count (Table 3's selection).
func BestAtFlows(res bo.Result, store *sync.Map, flows int) (TrainedPoint, bool) {
	return bestWhere(res, store, flows, func(TrainedPoint) bool { return true })
}

// bestPartitionedAtFlows restricts the selection to multi-partition models.
func bestPartitionedAtFlows(res bo.Result, store *sync.Map, flows int) (TrainedPoint, bool) {
	return bestWhere(res, store, flows, func(tp TrainedPoint) bool {
		return tp.Model != nil && tp.Model.NumPartitions() >= 2
	})
}

func bestWhere(res bo.Result, store *sync.Map, flows int, keep func(TrainedPoint) bool) (TrainedPoint, bool) {
	var best TrainedPoint
	found := false
	for _, ev := range res.Evaluations {
		if !ev.Feasible || ev.Flows < flows {
			continue
		}
		v, ok := store.Load(pointID(ev.Point))
		if !ok {
			continue
		}
		tp := v.(TrainedPoint)
		if !keep(tp) {
			continue
		}
		if !found || tp.F1 > best.F1 {
			best = tp
			found = true
		}
	}
	return best, found
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
