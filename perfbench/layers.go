package main

// The per-layer metrics every workload reports. A traced run replays
// each layer's public entry points on a fresh build of the workload's
// own corpus and rule set, and times every call from outside: the
// same layers on every workload, on that workload's data.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"erminer"
	"erminer/internal/core"
	"erminer/internal/detrand"
	"erminer/internal/mdp"
	"erminer/internal/relation"
	"erminer/internal/repair"
	"erminer/internal/rl"
	"erminer/internal/serve"
)

// corpus is what the replays run on: a fresh build of a workload's
// data, untouched by its measured phase, the rule set the workload
// serves or mined on it, and the EnuMinerH3 run that mined that set.
type corpus struct {
	ds    *erminer.Dataset
	p     *core.Problem
	rules []core.MinedRule
	mined mining
}

// Sizes of the replays.
const (
	mdpSteps      = 2000 // seeded MDP steps
	trainReplays  = 400  // DQN optimisation steps
	forwardCalls  = 2000 // Q-value forward passes
	fullApplyReps = 3    // repairs of the whole input
	replayBatches = 256  // repair requests served and replayed
	replayPatches = 64   // seeded patches on workloads that send none
)

// setLayers replays every layer on c and sets the per-layer metrics.
// batches are the workload's repair requests; patches, in the order
// they are applied, are the workload's own or seeded ones, and want,
// when not nil, holds the fleet's reply to each, whose etags the
// replay must reach. The write replay runs last: it mutates c.
func setLayers(res *result, c corpus, batches []batch, patches []patchOp, want []serve.DataPatchResponse, seed int64) error {
	if err := setReadLayers(res, c, batches); err != nil {
		return fmt.Errorf("read replay: %w", err)
	}
	if err := setMeasureLayer(res, c.p, c.rules); err != nil {
		return fmt.Errorf("measure replay: %w", err)
	}
	if err := setLearningLayers(res, c.p, seed); err != nil {
		return fmt.Errorf("learning replay: %w", err)
	}
	list := ruleList(c.rules)
	var full []float64
	for i := 0; i < fullApplyReps; i++ {
		full = append(full, timeIt(func() { repair.Apply(c.p.NewEvaluator(), list) }).Seconds())
	}
	res.set("repair.full_apply_s", "s", median(full))
	res.set("enuminer.explored", "count", float64(c.mined.explored))
	res.set("enuminer.candidates_per_s", "1/s", float64(c.mined.explored)/c.mined.wall.Seconds())
	res.set("measure.index_cache_len", "count", float64(c.mined.cacheLen))
	if err := setWriteLayers(res, c, patches, want); err != nil {
		return fmt.Errorf("write replay: %w", err)
	}
	return nil
}

// setReadLayers serves each batch in process, calling
// serve.Server.ServeHTTP directly after a warm-up pass, and right after
// replays the handler's stages on the same batch. With no network, no
// second request and no client competing for the cores, the handler's
// time is its stages' time, and serve.stage_coverage checks that they
// add up.
func setReadLayers(res *result, c corpus, batches []batch) error {
	srv, err := serve.New(c.p, c.rules, serve.Config{})
	if err != nil {
		return err
	}
	defer func() { logf("stopping replay server: %v", shutdownServer(srv)) }()
	for _, b := range batches {
		if _, err := serveInProcess(srv, http.MethodPost, serve.PathRepair, b.body); err != nil {
			return err
		}
	}
	list := ruleList(c.rules)
	stages := make([]readStages, len(batches))
	var handler, coverage []float64
	calls := 0
	for i, b := range batches {
		var body []byte
		dt := timeIt(func() { body, err = serveInProcess(srv, http.MethodPost, serve.PathRepair, b.body) })
		if err != nil {
			return err
		}
		if stages[i], err = replayRead(c.p, list, 1, b.body, sha256.Sum256(body)); err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		handler = append(handler, millis(dt))
		coverage = append(coverage, float64(stages[i].total())/float64(dt))
		calls += stages[i].renderCalls
	}
	pick := func(f func(readStages) time.Duration) float64 {
		xs := make([]float64, len(stages))
		for i, st := range stages {
			xs[i] = millis(f(st))
		}
		return median(xs)
	}
	res.set("serve.handler_ms", "ms", median(handler))
	res.set("serve.stage_coverage", "ratio", median(coverage))
	res.set("serve.decode_ms", "ms", pick(func(s readStages) time.Duration { return s.decode }))
	res.set("serve.encode_ms", "ms", pick(func(s readStages) time.Duration { return s.encode }))
	res.set("relation.intern_ms", "ms", pick(func(s readStages) time.Duration { return s.intern }))
	res.set("repair.apply_ms", "ms", pick(func(s readStages) time.Duration { return s.apply }))
	res.set("repair.explain_ms", "ms", pick(func(s readStages) time.Duration { return s.explain }))
	res.set("rule.render_ms", "ms", pick(func(s readStages) time.Duration { return s.render }))
	res.set("rule.render_calls_per_op", "count", float64(calls)/float64(len(batches)))
	return nil
}

// setMeasureLayer evaluates the rules on a fresh evaluator with its own
// index cache twice: the first pass builds the master indexes, the
// second finds them cached. measure.index_build_ms is the first pass's
// extra time per index built.
func setMeasureLayer(res *result, p *core.Problem, rules []core.MinedRule) error {
	q := *p
	q.IndexCache, q.Columns = nil, nil
	ev := q.NewEvaluator()
	var cold, warm time.Duration
	var warmUs []float64
	for pass := 0; pass < 2; pass++ {
		for _, mr := range rules {
			dt := timeIt(func() {
				m := ev.Evaluate(mr.Rule, nil)
				ev.ReleaseCover(m.PatternCover)
			})
			if pass == 0 {
				cold += dt
				continue
			}
			warm += dt
			warmUs = append(warmUs, micros(dt))
		}
	}
	if ev.Stats.IndexBuilds == 0 {
		return fmt.Errorf("the cold pass built no master index")
	}
	res.set("measure.evaluate_us", "us", median(warmUs))
	res.set("measure.index_build_ms", "ms", millis(cold-warm)/float64(ev.Stats.IndexBuilds))
	return nil
}

// setLearningLayers replays RLMiner's inner loop at its own dimensions
// on a copy of p with fresh index caches: seeded episodes of valid
// actions through mdp.Env.Step, then DQN optimisation steps and
// forward passes on the transitions they produced, with RLMiner's
// hidden sizes.
func setLearningLayers(res *result, p *core.Problem, seed int64) error {
	q := *p
	q.IndexCache, q.Columns = nil, nil
	q.ShareIndexes()
	env, err := mdp.NewEnv(&q, mdp.Config{})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	agent := rl.NewAgent(detrand.New(seed), env.StateDim(), env.ActionDim(), rl.Config{
		Hidden:        []int{64, 64},
		EpsDecaySteps: rlSteps * 6 / 10,
	})
	var steps []float64
	var states [][]float64
	state, mask := env.Reset()
	var valid []int
	for n := 0; n < mdpSteps; n++ {
		valid = valid[:0]
		for a, ok := range mask {
			if ok {
				valid = append(valid, a)
			}
		}
		a := valid[rng.Intn(len(valid))]
		var sr mdp.StepResult
		steps = append(steps, micros(timeIt(func() { sr = env.Step(a) })))
		agent.Observe(rl.Transition{State: state, Action: a, Reward: sr.Reward, Next: sr.State, NextMask: sr.Mask, Done: sr.Done})
		states = append(states, state)
		state, mask = sr.State, sr.Mask
		if env.Done() {
			state, mask = env.Reset()
		}
	}
	var train, forward []float64
	for i := 0; i < trainReplays; i++ {
		var stepped bool
		train = append(train, micros(timeIt(func() { _, stepped = agent.TrainStep() })))
		if !stepped {
			return fmt.Errorf("the agent did not optimise after %d transitions", mdpSteps)
		}
	}
	for i := 0; i < forwardCalls; i++ {
		s := states[i%len(states)]
		forward = append(forward, micros(timeIt(func() { agent.QValues(s) })))
	}
	res.set("mdp.step_us", "us", median(steps))
	res.set("rl.train_step_us", "us", median(train))
	res.set("nn.forward_us", "us", median(forward))
	return nil
}

// setWriteLayers applies the patches, in order, through the write
// path's layers on c.
func setWriteLayers(res *result, c corpus, patches []patchOp, want []serve.DataPatchResponse) error {
	w := &writeReplayer{p: c.p, rules: c.rules}
	var applyDelta, patch, revalidate, hash []float64
	revalidated, dropped := 0, 0
	for k, op := range patches {
		st, err := w.replay(op.req)
		if err != nil {
			return fmt.Errorf("patch %d: %w", k, err)
		}
		applyDelta = append(applyDelta, millis(st.applyDelta))
		revalidate = append(revalidate, millis(st.revalidate))
		if op.req.Target == "master" {
			patch = append(patch, millis(st.patch))
		}
		if st.etag != "" {
			if want != nil && st.etag != want[k].RulesETag {
				return fmt.Errorf("patch %d left generation %s, the fleet %s", k, st.etag, want[k].RulesETag)
			}
			hash = append(hash, millis(st.hash))
		}
		revalidated += st.revalidated
		dropped += st.dropped
	}
	if len(patch) == 0 || len(hash) == 0 {
		return fmt.Errorf("no master patch or no re-scored generation to time")
	}
	res.set("relation.apply_delta_ms", "ms", median(applyDelta))
	res.set("measure.patch_ms", "ms", median(patch))
	res.set("repair.revalidate_ms", "ms", median(revalidate))
	res.set("repair.revalidated_rules", "count", float64(revalidated)/float64(len(patches)))
	res.set("repair.dropped_rules", "count", float64(dropped))
	res.set("rulesio.hash_ms", "ms", median(hash))
	return nil
}

// patchOp is one seeded PATCH /v1/data.
type patchOp struct {
	req  serve.DataPatchRequest
	body []byte
}

// makePatches builds n patches from ds and its master relation: even
// ones append masterAppendRows master rows sampled from the master
// relation (a steward re-registering known entities), odd ones correct
// one corrupted input cell back to its clean value. It also returns one
// input and one master cell that no patch touches, with their values,
// for the no-op patches that read back a node's data version.
func makePatches(ds *erminer.Dataset, master *relation.Relation, rng *rand.Rand, n int) ([]patchOp, [2]serve.DataPatchRequest, error) {
	in, clean := ds.Input(), ds.Clean
	type cell struct{ row, col int }
	var corrupted []cell
	for row := 0; row < in.NumRows(); row++ {
		for col := 0; col < in.NumCols(); col++ {
			if clean.Code(row, col) != relation.Null && in.Value(row, col) != clean.Value(row, col) {
				corrupted = append(corrupted, cell{row, col})
			}
		}
	}
	rng.Shuffle(len(corrupted), func(i, j int) { corrupted[i], corrupted[j] = corrupted[j], corrupted[i] })
	if len(corrupted) < n/2+1 {
		return nil, [2]serve.DataPatchRequest{}, fmt.Errorf("only %d corrupted cells for %d corrections", len(corrupted), n/2)
	}
	inNames, msNames := in.Schema().Names(), master.Schema().Names()
	out := make([]patchOp, n)
	for k := range out {
		var req serve.DataPatchRequest
		if k%2 == 0 {
			req.Target = "master"
			for a := 0; a < masterAppendRows; a++ {
				row := rng.Intn(master.NumRows())
				t := map[string]string{}
				for col, name := range msNames {
					if master.Code(row, col) != relation.Null {
						t[name] = master.Value(row, col)
					}
				}
				req.Appends = append(req.Appends, t)
			}
		} else {
			c := corrupted[k/2]
			req.Target = "input"
			req.Updates = []serve.DataCellJSON{{Row: c.row, Attr: inNames[c.col], Value: clean.Value(c.row, c.col)}}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, [2]serve.DataPatchRequest{}, err
		}
		out[k] = patchOp{req: req, body: body}
	}
	last := corrupted[len(corrupted)-1]
	noops := [2]serve.DataPatchRequest{
		{Target: "input", Updates: []serve.DataCellJSON{{Row: last.row, Attr: inNames[last.col], Value: in.Value(last.row, last.col)}}},
		{Target: "master", Updates: []serve.DataCellJSON{{Row: 0, Attr: msNames[0], Value: master.Value(0, 0)}}},
	}
	return out, noops, nil
}
