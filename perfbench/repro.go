package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"netpath/internal/cfg"
	"netpath/internal/dataflow"
	"netpath/internal/dynamo"
	"netpath/internal/experiments"
	"netpath/internal/metrics"
	"netpath/internal/par"
	"netpath/internal/predict"
	"netpath/internal/profile"
	"netpath/internal/prog"
	"netpath/internal/staticpred"
	"netpath/internal/workload"
)

// reproScale is repro's one fixed workload scale. The cost of the static
// analysis does not depend on it; the profiling and Dynamo work grows with
// it.
const reproScale = 0.01

// render is the reproduction's output: Tables 1-2 and Figures 2-5.
func render(bps []experiments.BenchProfile, series []experiments.Series, grid map[string][]experiments.Fig5Result) string {
	return strings.Join([]string{
		experiments.Table1(bps), experiments.Table2(bps),
		experiments.Fig2(series), experiments.Fig3(series),
		experiments.Fig4(bps), experiments.Fig5(grid),
	}, "\n")
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// cellsPerRepro counts one reproduction's cells: nine profile
// collections, the 3-scheme x 16-delay sweep per program, and the 7-cell
// Figure-5 row per program.
var cellsPerRepro = len(workload.Names()) * (1 + 3*len(metrics.DefaultTaus()) + 7)

// checkRepro compares a reproduction's profiles and Figure-5 cells with the
// reference runs.
func checkRepro(out *outcome, refs map[string]*reference, bps []experiments.BenchProfile, grid map[string][]experiments.Fig5Result) {
	for _, bp := range bps {
		if want := refs[bp.Name].steps; bp.Prof.Steps != want {
			out.mismatch("profile of %s: %d steps, reference %d", bp.Name, bp.Prof.Steps, want)
		}
	}
	cells := 0
	for key, col := range grid {
		for _, r := range col {
			cells++
			if want := refs[r.Bench].steps; r.Result.Steps != want || r.Result.VMFault != "" {
				out.mismatch("Fig-5 %s %s: %d steps (fault %q), reference %d", key, r.Bench, r.Result.Steps, r.Result.VMFault, want)
			}
		}
	}
	if want := 7 * len(refs); cells != want {
		out.mismatch("Fig-5 grid has %d cells, want %d", cells, want)
	}
}

func runRepro(c runConfig) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	var refs map[string]*reference
	var st vmStats
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if refs, st, err = benchRefs(reproScale); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if c.traced {
		return out, reproTraced(out, refs, st)
	}

	// Whole reproductions until the time is up, at least one.
	resetPeakRSS()
	var times []float64
	begin := time.Now()
	for len(times) == 0 || time.Since(begin) < time.Duration(c.seconds)*time.Second {
		start := time.Now()
		bps, err := experiments.CollectAll(reproScale)
		if err != nil {
			return nil, err
		}
		series := experiments.SweepSchemes(bps, metrics.DefaultTaus())
		grid, err := experiments.RunFig5(reproScale)
		if err != nil {
			return nil, err
		}
		sha := digest(render(bps, series, grid))
		times = append(times, time.Since(start).Seconds())
		checkRepro(out, refs, bps, grid)
		if out.tablesSHA != "" && sha != out.tablesSHA {
			out.mismatch("reproduction %d rendered different tables", len(times))
		}
		out.tablesSHA = sha
	}
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.attempted = len(times) * cellsPerRepro
	out.note("repro_s %.4f s (median of n=%d reproductions at scale %g; %d cells each)", median(times), len(times), reproScale, cellsPerRepro)
	ms := make([]float64, len(times))
	for i, t := range times {
		ms[i] = t * 1000
	}
	e2eNotes(out, "reproductions", ms, sum(times), setups)
	return out, nil
}

// reproTraced runs the reproduction through the pieces experiments uses,
// in its order and with its parallelism, timing each public call; then it
// times a separate dataflow.Analyze and cfg.VerifyProgram per program.
func reproTraced(out *outcome, refs map[string]*reference, st vmStats) error {
	rec := newRecorder()
	bs := workload.All()
	ctx := context.Background()
	start := time.Now()

	phase := rec.begin("experiments.CollectAll", "", -1, -1)
	bps, err := par.MapErr(ctx, len(bs), func(_ context.Context, i int) (experiments.BenchProfile, error) {
		var p *prog.Program
		var pr *profile.Profile
		var err error
		rec.call("workload.Build", bs[i].Name, -1, phase, func() { p, err = bs[i].Build(reproScale) })
		if err != nil {
			return experiments.BenchProfile{}, err
		}
		rec.call("profile.Collect", bs[i].Name, -1, phase, func() { pr, err = profile.Collect(p, 0) })
		if err != nil {
			return experiments.BenchProfile{}, err
		}
		return experiments.BenchProfile{Name: bs[i].Name, Prof: pr, Hot: pr.Hot(experiments.HotFrac)}, nil
	})
	rec.end(phase)
	if err != nil {
		return err
	}

	phase = rec.begin("experiments.SweepSchemes", "", -1, -1)
	taus := metrics.DefaultTaus()
	var series []experiments.Series
	var facs []metrics.Factory
	for _, bp := range bps {
		var sp *staticpred.Predictor
		rec.call("staticpred.Predict", bp.Name, -1, phase, func() {
			if sp, err = staticpred.Predict(bp.Prof); err != nil {
				sp = staticpred.NewPredictor(bp.Prof, nil)
			}
		})
		facs = append(facs, metrics.PathProfileFactory(), metrics.NETFactory(bp.Prof),
			func(int64) predict.Predictor { return sp })
		for _, s := range []string{"pathprofile", "net", "static"} {
			series = append(series, experiments.Series{Scheme: s, Bench: bp.Name})
		}
	}
	for si := range series {
		bp := bps[si/3]
		rec.call("metrics.Sweep", bp.Name, -1, phase, func() {
			series[si].Points = metrics.Sweep(bp.Prof, bp.Hot, facs[si], taus)
		})
	}
	rec.end(phase)

	phase = rec.begin("experiments.RunFig5", "", -1, -1)
	progs, err := par.MapErr(ctx, len(bs), func(_ context.Context, i int) (*prog.Program, error) {
		var p *prog.Program
		var err error
		rec.call("workload.Build", bs[i].Name, -1, phase, func() { p, err = bs[i].Build(reproScale) })
		return p, err
	})
	if err != nil {
		return err
	}
	type combo struct {
		scheme dynamo.Scheme
		tau    int64
	}
	var combos []combo
	for _, s := range []dynamo.Scheme{dynamo.SchemeNET, dynamo.SchemePathProfile} {
		for _, tau := range experiments.Fig5Taus {
			combos = append(combos, combo{s, tau})
		}
	}
	combos = append(combos, combo{dynamo.SchemeStatic, 0})
	results, err := par.MapErr(ctx, len(bs)*len(combos), func(_ context.Context, cell int) (dynamo.Result, error) {
		bi, cb := cell/len(combos), combos[cell%len(combos)]
		dc := dynamo.DefaultConfig(cb.scheme, cb.tau)
		if cb.scheme != dynamo.SchemeNET {
			dc.BailoutAfter = 0 // as experiments.RunFig5
		}
		var sys *dynamo.System
		var res dynamo.Result
		var err error
		rec.call("dynamo.New", bs[bi].Name, -1, phase, func() { sys = dynamo.New(progs[bi], dc) })
		rec.call("System.Run", bs[bi].Name, -1, phase, func() { res, err = sys.Run() })
		return res, err
	})
	rec.end(phase)
	if err != nil {
		return err
	}
	grid := map[string][]experiments.Fig5Result{}
	for cell, res := range results {
		bi, cb := cell/len(combos), combos[cell%len(combos)]
		key := fmt.Sprintf("%v%d", cb.scheme, cb.tau)
		grid[key] = append(grid[key], experiments.Fig5Result{Bench: bs[bi].Name, Result: res})
	}
	out.tablesSHA = digest(render(bps, series, grid))
	wall := time.Since(start)
	checkRepro(out, refs, bps, grid)
	out.attempted = cellsPerRepro

	// The pipeline calls these inside staticpred and dynamo; separate calls
	// time them per program.
	phase = rec.begin("separate", "", -1, -1)
	errs := make([]error, len(progs))
	par.Do(len(progs), func(i int) {
		rec.call("dataflow.Analyze", bs[i].Name, -1, phase, func() { _, errs[i] = dataflow.Analyze(progs[i]) })
		if errs[i] == nil {
			rec.call("cfg.VerifyProgram", bs[i].Name, -1, phase, func() { errs[i] = cfg.VerifyProgram(progs[i]) })
		}
	})
	rec.end(phase)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", bs[i].Name, err)
		}
	}
	if err := rec.write(fmt.Sprintf("%s/spans-repro.json", stateDir)); err != nil {
		return err
	}

	l := out.layers
	var collectSteps int64
	for _, bp := range bps {
		collectSteps += bp.Prof.Steps
	}
	var steps, fragInstrs, allInstrs, fragments, flushes, bailouts int64
	for _, r := range results {
		steps += r.Steps
		fragInstrs += r.FragInstrs
		allInstrs += r.InterpInstrs + r.FragInstrs + r.NativeInstrs
		fragments += int64(r.Fragments)
		flushes += int64(r.Flushes)
		if r.BailedOut {
			bailouts++
		}
	}
	for _, b := range workload.Names() {
		l["dataflow.analyze_ms."+b] = median(rec.ms("dataflow.Analyze", b))
		l["workload.build_ms."+b] = median(rec.ms("workload.Build", b))
		l["cfg.verify_ms."+b] = median(rec.ms("cfg.VerifyProgram", b))
		l["dynamo.new_ms."+b] = median(rec.ms("dynamo.New", b))
		l["dynamo.run_ms."+b] = median(rec.ms("System.Run", b))
	}
	l["staticpred.predict_ms"] = sum(rec.ms("staticpred.Predict", "*"))
	l["profile.collect_steps_per_s"] = float64(collectSteps) / (sum(rec.ms("profile.Collect", "*")) / 1e3)
	l["experiments.collect_s"] = sum(rec.ms("experiments.CollectAll", "*")) / 1e3
	l["experiments.sweep_s"] = sum(rec.ms("experiments.SweepSchemes", "*")) / 1e3
	l["experiments.fig5_s"] = sum(rec.ms("experiments.RunFig5", "*")) / 1e3
	l["asm.parse_ms"] = 0
	l["cfg.verify_ms"] = median(rec.ms("cfg.VerifyProgram", "*"))
	l["vm.steps_per_s"] = float64(st.steps) / (float64(st.ns) / 1e9)
	l["dynamo.steps_per_s"] = float64(steps) / (sum(rec.ms("System.Run", "*")) / 1e3)
	l["dynamo.cached_frac"] = ratio(fragInstrs, allInstrs)
	l["dynamo.steps"] = float64(steps)
	l["dynamo.fragments"] = float64(fragments)
	l["dynamo.flushes"] = float64(flushes)
	l["dynamo.bailouts"] = float64(bailouts)
	for _, k := range []string{"tier2.promoted", "tier2.compiled", "tier2.dropped", "tier2.instr_frac", "tier2.deopts",
		"snapshot.restore_ms", "snapshot.snapshot_ms", "snapshot.merge_ms", "snapshot.restored_frac",
		"server.admit_ms.p50", "server.admit_ms.p99", "server.queue_wait_ms.p50", "server.queue_wait_ms.p99",
		"server.run_ms.p50", "server.run_ms.p99"} {
		l[k] = 0
	}
	l["trace.wall_s"] = wall.Seconds()
	return nil
}
