package main

import (
	"fmt"
	"math/rand"
	"time"

	"erminer"
	"erminer/internal/core"
	"erminer/internal/metrics"
	"erminer/internal/repair"
	"erminer/internal/rlminer"
	"erminer/internal/rulesio"
)

// The mine workload: nursery at the paper's Table I size (input 10000,
// master 2980) with 10% cell noise, the same corpus in every run (as
// erminer -dataset nursery -seed 1 builds it), mined by EnuMinerH3 and
// by RLMiner at the paper's 5000 training steps with a fixed seed, so
// every run does the same work. The miners take turns, one run each per
// secondsPerRepeat of --seconds (at least one), every run on a fresh copy of the problem (its own index
// caches), and each rule set is scored by repairing the full input.
// --seed only draws the traced run's layer replays.
const (
	mineDataset      = "nursery"
	rlSteps          = 5000
	secondsPerRepeat = 5
	mineSetupReps    = 21
	rlSeed           = 1
)

// mineData is the mine workload's corpus.
type mineData struct {
	ds *erminer.Dataset
	p  *core.Problem
}

func (mineData) stop() error { return nil }

func buildMineData() (mineData, error) {
	ds, err := erminer.BuildDataset(mineDataset, erminer.DatasetSpec{Seed: corpusSeed})
	if err != nil {
		return mineData{}, err
	}
	ds.InjectErrors(erminer.NoiseConfig{Rate: noiseRate, Seed: corpusSeed + 1})
	return mineData{ds: ds, p: ds.Problem(0)}, nil
}

// minerRun is one mining run and its scoring.
type minerRun struct {
	mine     time.Duration
	rules    []core.MinedRule
	hash     string
	f1       float64
	explored int
	cacheLen int
	stats    rlminer.Stats
}

// mineOnce runs m on a fresh copy of the problem, as cmd/erminer does:
// one shared index cache across mining and the scoring repair.
func mineOnce(d mineData, m core.Miner) (minerRun, error) {
	p := *d.p
	p.ShareIndexes()
	var run minerRun
	var res *core.ResultSet
	var err error
	run.mine = timeIt(func() { res, err = m.Mine(&p) })
	if err != nil {
		return run, err
	}
	run.rules, run.explored, run.cacheLen = res.Rules, res.Explored, p.IndexCache.Len()
	data, err := rulesio.Export(&p, res.Rules)
	if err != nil {
		return run, err
	}
	run.hash = rulesio.Hash(data)
	fixes := repair.Apply(p.NewEvaluator(), ruleList(res.Rules))
	run.f1 = metrics.Weighted(fixes.Pred, d.ds.Truth()).F1
	if rl, ok := m.(*rlminer.Miner); ok {
		run.stats = rl.Stats()
	}
	return run, nil
}

// runMine is the mine workload.
func runMine(cfg config) (*result, error) {
	d, setups, err := repeatSetup(cfg, mineSetupReps, buildMineData)
	if err != nil {
		return nil, err
	}
	repeats := max(1, cfg.seconds/secondsPerRepeat)
	var t *tracer
	if cfg.trace {
		repeats = 1
		t = newTracer()
	}
	var enu, rlm []minerRun
	var ph phase
	ph.measure(func() {
		for i := 0; i < repeats && err == nil; i++ {
			var run minerRun
			if run, err = mineOnce(d, erminer.NewEnuMinerH3(erminer.EnuMinerConfig{})); err != nil {
				return
			}
			enu = append(enu, run)
			run, err = mineOnce(d, erminer.NewRLMiner(erminer.RLMinerConfig{TrainSteps: rlSteps, Seed: rlSeed}))
			rlm = append(rlm, run)
		}
	})
	if err != nil {
		return nil, err
	}
	heapMB := liveHeapMB()

	res := newResult()
	res.Attempted = len(enu) + len(rlm)
	k := d.p.K()
	for _, runs := range [][]minerRun{enu, rlm} {
		for i, run := range runs {
			if len(run.rules) != k {
				return res.wrong(fmt.Errorf("a miner returned %d rules, want %d", len(run.rules), k)), nil
			}
			if run.hash != runs[0].hash || run.f1 != runs[0].f1 {
				return res.wrong(fmt.Errorf("mining run %d returned rule set %s (F1 %v), run 0 %s (F1 %v)",
					i, run.hash, run.f1, runs[0].hash, runs[0].f1)), nil
			}
		}
	}
	logf("mine: EnuMinerH3 rule set %s, F1 %.4f; RLMiner rule set %s, F1 %.4f", enu[0].hash, enu[0].f1, rlm[0].hash, rlm[0].f1)
	mined := func(runs []minerRun) []float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = millis(r.mine)
		}
		return xs
	}
	st := rlm[0].stats
	logf("mine: RLMiner trained %v and inferred %v over %d episodes", st.TrainTime, st.InferTime, st.Episodes)
	if !cfg.trace {
		res.setEndToEnd(setups, heapMB, ph.wall, mined(enu), mined(rlm))
		return res, nil
	}

	ph.setRuntime(res, res.Attempted)
	res.set("cluster.skew_retries", "count", 0) // nothing is served
	c, err := buildMineData()
	if err != nil {
		return nil, err
	}
	batches, err := makeBatches(c.ds.Input(), rand.New(rand.NewSource(cfg.seed)), replayBatches,
		func(i int) bool { return i%explainEvery == explainEvery-1 })
	if err != nil {
		return nil, err
	}
	patches, _, err := makePatches(c.ds, c.p.Master, rand.New(rand.NewSource(cfg.seed)), replayPatches)
	if err != nil {
		return nil, err
	}
	mining := mining{wall: enu[0].mine, explored: enu[0].explored, cacheLen: enu[0].cacheLen}
	t.record("replay.layers", -1, func() {
		err = setLayers(res, corpus{ds: c.ds, p: c.p, rules: enu[0].rules, mined: mining}, batches, patches, nil, cfg.seed)
	})
	if err != nil {
		return nil, err
	}
	return res, t.write(spanFile("mine", cfg.seed))
}
