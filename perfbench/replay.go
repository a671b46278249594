package main

// Layer replays: the benchmark calls each layer's public entry points
// on the workload's own inputs, in the order the serving handlers call
// them, and times each call from outside. No program code is
// instrumented.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"erminer/internal/core"
	"erminer/internal/measure"
	"erminer/internal/relation"
	"erminer/internal/repair"
	"erminer/internal/rule"
	"erminer/internal/rulesio"
	"erminer/internal/serve"
)

// readStages is one replay of POST /v1/repair on a batch.
type readStages struct {
	decode, intern, apply, explain, render, fixes, encode time.Duration
	renderCalls                                           int
}

func (s readStages) total() time.Duration {
	return s.decode + s.intern + s.apply + s.explain + s.render + s.fixes + s.encode
}

// replayRead repeats the repair handler's stages on body against p and
// the active rules: strict JSON decode, interning into a batch relation
// (relation.New + AppendRow), repair.ApplyContext, repair.WriteFixes
// with repair.Explain and rule.String per fix, and JSON encode. The
// encoded reply must hash to want, the hash of the server's own reply,
// which proves the replay did the handler's work.
func replayRead(p *core.Problem, list []*rule.Rule, version int64, body []byte, want [sha256.Size]byte) (readStages, error) {
	var st readStages
	var req serve.TupleBatch
	var err error
	st.decode = timeIt(func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return st, err
	}
	var rel *relation.Relation
	st.intern = timeIt(func() { rel = internBatch(p, req.Tuples) })
	var ev *measure.Evaluator
	var res repair.Result
	st.apply = timeIt(func() {
		ev = measure.NewSharedEvaluator(rel, p.Master, nil, p.IndexCache)
		ev.Parallelism = p.Workers()
		ev.Scalar = p.ScalarEval
		res, err = repair.ApplyContext(context.Background(), ev, list)
	})
	if err != nil {
		return st, err
	}

	start := time.Now()
	y := p.Y
	yName := p.Input.Schema().Attr(y).Name
	oldCodes := make([]int32, rel.NumRows())
	for row := range oldCodes {
		oldCodes[row] = rel.Code(row, y)
	}
	changed := repair.WriteFixes(rel, y, res, req.OnlyMissing)
	resp := serve.RepairResponse{
		Tuples:       req.Tuples,
		Fixes:        []serve.FixJSON{},
		Covered:      res.Covered,
		Changed:      changed,
		RulesVersion: version,
	}
	for row := 0; row < rel.NumRows(); row++ {
		if res.Pred[row] == relation.Null || rel.Code(row, y) == oldCodes[row] {
			continue
		}
		fix := serve.FixJSON{
			Row:   row,
			Attr:  yName,
			Old:   rel.Dict(y).Value(oldCodes[row]),
			New:   rel.Dict(y).Value(res.Pred[row]),
			Score: res.Score[row],
		}
		var exp repair.Explanation
		st.explain += timeIt(func() { exp = repair.Explain(ev, list, row) })
		for _, evd := range exp.Evidence {
			var ruleStr string
			st.render += timeIt(func() { ruleStr = evd.Rule.String(rel, p.Master.Schema()) })
			st.renderCalls++
			fix.Rules = append(fix.Rules, ruleStr)
			if req.Explain {
				ej := serve.EvidenceJSON{Rule: ruleStr}
				for _, c := range evd.Candidates {
					ej.Candidates = append(ej.Candidates, serve.CandidateJSON{
						Value: rel.Dict(y).Value(c.Value),
						Count: c.Count,
						Score: c.Score,
					})
				}
				fix.Evidence = append(fix.Evidence, ej)
			}
		}
		resp.Tuples[row][yName] = fix.New
		resp.Fixes = append(resp.Fixes, fix)
	}
	st.fixes = time.Since(start) - st.explain - st.render

	var out bytes.Buffer
	st.encode = timeIt(func() { err = json.NewEncoder(&out).Encode(resp) })
	if err != nil {
		return st, err
	}
	if sha256.Sum256(out.Bytes()) != want {
		return st, fmt.Errorf("replayed reply differs from the server's")
	}
	return st, nil
}

// writeStages is one replay of the PATCH /v1/data write path.
type writeStages struct {
	applyDelta, patch, revalidate, hash time.Duration
	revalidated, dropped                int
	etag                                string // empty when no rule was re-scored
}

// writeReplayer repeats serve's data-patch path on its own copy of a
// worker's problem and rule set: relation.ApplyDelta, the master-side
// cache patching (IndexCache.ApplyDelta, ColumnIndex.ApplyMasterDelta),
// repair.Revalidate of the touched rules, and rulesio.Export + Hash of
// the new generation.
type writeReplayer struct {
	p     *core.Problem
	rules []core.MinedRule
}

func (w *writeReplayer) replay(req serve.DataPatchRequest) (writeStages, error) {
	var st writeStages
	master := req.Target == "master"
	rel := w.p.Input
	if master {
		rel = w.p.Master
	}
	schema := rel.Schema()
	var d relation.Delta
	for _, t := range req.Appends {
		row := make([]int32, schema.Len())
		for c := range row {
			row[c] = relation.Null
		}
		for col, v := range t {
			if v != "" {
				idx := schema.Index(col)
				row[idx] = rel.Dict(idx).Code(v)
			}
		}
		d.Appends = append(d.Appends, row)
	}
	for _, u := range req.Updates {
		idx := schema.Index(u.Attr)
		code := relation.Null
		if u.Value != "" {
			code = rel.Dict(idx).Code(u.Value)
		}
		d.Updates = append(d.Updates, relation.CellUpdate{Row: u.Row, Col: idx, Code: code})
	}
	var cs relation.ChangeSet
	var err error
	st.applyDelta = timeIt(func() { cs, err = rel.ApplyDelta(d) })
	if err != nil || cs.Empty() {
		return st, err
	}
	if master {
		st.patch = timeIt(func() {
			w.p.IndexCache.ApplyDelta(w.p.Master, cs)
			if w.p.Columns != nil {
				w.p.Columns.ApplyMasterDelta(cs)
			}
		})
	}
	var kept []core.MinedRule
	st.revalidate = timeIt(func() {
		ev := measure.NewSharedEvaluator(w.p.Input, w.p.Master, w.p.Truth, w.p.IndexCache)
		if w.p.Columns != nil {
			ev.ShareColumns(w.p.Columns)
		}
		ev.Parallelism = w.p.Workers()
		ev.Scalar = w.p.ScalarEval
		kept, st.revalidated, st.dropped = repair.Revalidate(ev, w.rules, w.p.SupportThreshold, func(r *rule.Rule) bool {
			return repair.TouchedBy(r, cs, master)
		})
	})
	if st.revalidated == 0 {
		return st, nil
	}
	st.hash = timeIt(func() {
		var data []byte
		data, err = rulesio.Export(w.p, kept)
		st.etag = rulesio.Hash(data)
	})
	w.rules = kept
	return st, err
}
