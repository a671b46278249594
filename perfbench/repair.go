package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	"erminer/internal/measure"
	"erminer/internal/relation"
	"erminer/internal/repair"
	"erminer/internal/rule"
	"erminer/internal/serve"
)

// repairOpsPerSecond sizes the measured phase of the repair workload:
// --seconds 10 sends 6000 requests, about ten seconds of load on the
// reference host. The count, not the clock, ends the phase, so every
// run does the same work.
const repairOpsPerSecond = 600

// explainEvery makes one request in four ask for explanations.
const explainEvery = 4

// runRepair is the repair workload: one in-process erminerd on loopback
// HTTP, driven by closed-loop clients posting 64-tuple batches.
func runRepair(cfg config) (*result, error) {
	var sw *traceSwitch
	if cfg.trace {
		sw = &traceSwitch{}
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	w, setups, err := repeatSetup(cfg, servingSetups, func() (*worker, error) {
		w, err := startWorker("", sw)
		if err != nil {
			return nil, err
		}
		if err := waitReady(hc, w.node.url); err != nil {
			return nil, errors.Join(err, w.stop())
		}
		return w, nil
	})
	if err != nil {
		return nil, err
	}
	live := w
	defer func() {
		if live != nil {
			logf("stopping server: %v", live.stop())
		}
	}()

	batches, err := makeBatches(w.data.ds.Input(), rand.New(rand.NewSource(cfg.seed)), batchPool,
		func(i int) bool { return i%explainEvery == explainEvery-1 })
	if err != nil {
		return nil, err
	}
	gen := newLoadGen(hc, sw)
	do := func(i int, rec *opRecord) {
		b := i % batchPool
		rec.kind, rec.item = opRead, b
		data := gen.call(i, http.MethodPost, w.node.url+serve.PathRepair, batches[b].body, rec)
		if rec.status == http.StatusOK {
			rec.sum = sha256.Sum256(data)
		}
	}
	ops := repairOpsPerSecond * cfg.seconds

	warm := gen.run(0, batchPool, do)
	buildsBefore, err := scrapeMetric(hc, w.node.url, "index_builds_total")
	if err != nil {
		return nil, err
	}
	var ph phase
	var recs []opRecord
	var traced []bool
	t := newTracer()
	if cfg.trace {
		recs, traced = ph.tracedLoad(gen, t, ops, do)
	} else {
		recs = ph.load(gen, ops, do)
	}
	buildsAfter, err := scrapeMetric(hc, w.node.url, "index_builds_total")
	if err != nil {
		return nil, err
	}
	heapMB := liveHeapMB()

	// The oracle: every 200 is byte-identical to a single-node
	// reference, whose fixes equal repair.Apply on the same tuples.
	sums, err := referenceSums(batches)
	if err != nil {
		return nil, err
	}

	if err := live.stop(); err != nil {
		return nil, err
	}
	live = nil

	res := newResult()
	reads := countOps(recs, opRead)
	res.Attempted, res.Failed = reads.attempted, reads.failed
	logf("repair reads: %s", reads)
	for _, set := range [][]opRecord{warm, recs} {
		if err := unexpected(set); err != nil {
			return res.wrong(err), nil
		}
		for i := range set {
			if set[i].status == http.StatusOK && set[i].sum != sums[set[i].item] {
				return res.wrong(fmt.Errorf("reply to operation %d (batch %d) differs from the single-node reference", i, set[i].item)), nil
			}
		}
	}

	if !cfg.trace {
		explained := func(want bool) []float64 {
			return latenciesOf(recs, func(i int) bool { return batches[recs[i].item].explain == want })
		}
		if p99, err := tailQuantile(latencies(recs, opRead, nil, false), 0.99); err == nil {
			note("read_p99_ms", "ms", p99)
		}
		res.setEndToEnd(setups, heapMB, ph.wall, explained(false), explained(true))
		return res, nil
	}

	ph.setRuntime(res, ops)
	res.set("cluster.skew_retries", "count", float64(reads.retries))
	note("measure.index_builds_per_op", "count", (buildsAfter-buildsBefore)/float64(len(recs)))
	note("trace.overhead_frac", "ratio", median(latencies(recs, opRead, traced, true))/median(latencies(recs, opRead, traced, false))-1)
	var selfHTTP, handler []float64
	for op, ss := range opSpans(t.snapshot(), len(recs)) {
		c, s := spansNamed(ss, spanClient), spansNamed(ss, spanServe)
		if recs[op].status != http.StatusOK || len(c) != 1 || len(s) != 1 {
			continue
		}
		selfHTTP = append(selfHTTP, millis(c[0].dur()-s[0].dur()))
		handler = append(handler, millis(s[0].dur()))
	}
	if len(handler) == 0 {
		return nil, fmt.Errorf("traced blocks recorded no complete client and server spans")
	}
	note("http.roundtrip_self_ms", "ms", median(selfHTTP))
	note("serve.loaded_handler_ms", "ms", median(handler))

	c, err := buildServingData()
	if err != nil {
		return nil, err
	}
	patches, _, err := makePatches(c.ds, c.p.Master, rand.New(rand.NewSource(cfg.seed)), replayPatches)
	if err != nil {
		return nil, err
	}
	t.record("replay.layers", -1, func() {
		err = setLayers(res, corpus{ds: c.ds, p: c.p, rules: c.rules, mined: c.mined}, batches[:replayBatches], patches, nil, cfg.seed)
	})
	if err != nil {
		return nil, err
	}
	return res, t.write(spanFile("repair", cfg.seed))
}

// referenceSums builds an in-process single node from the same seed
// and returns the hash of the reply it gives to every batch, checking
// each reply's fixes against repair.Apply.
func referenceSums(batches []batch) ([][sha256.Size]byte, error) {
	data, err := buildServingData()
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(data.p, data.rules, serve.Config{})
	if err != nil {
		return nil, err
	}
	defer func() { logf("stopping reference: %v", shutdownServer(srv)) }()
	list := ruleList(data.rules)
	sums := make([][sha256.Size]byte, len(batches))
	for b := range batches {
		body, err := serveInProcess(srv, http.MethodPost, serve.PathRepair, batches[b].body)
		if err != nil {
			return nil, fmt.Errorf("reference, batch %d: %w", b, err)
		}
		if err := checkFixes(data, list, batches[b], body); err != nil {
			return nil, fmt.Errorf("reference, batch %d: %w", b, err)
		}
		sums[b] = sha256.Sum256(body)
	}
	return sums, nil
}

// serveInProcess calls h directly, without a network hop, and returns
// the body of a 200 reply.
func serveInProcess(h http.Handler, method, path string, body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec.Body.Bytes(), nil
}

// checkFixes verifies a repair reply proposes exactly the fixes
// repair.Apply computes for the same tuples.
func checkFixes(data *servingData, list []*rule.Rule, b batch, body []byte) error {
	var resp serve.RepairResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	p := data.p
	rel := internBatch(p, b.tuples)
	ev := measure.NewSharedEvaluator(rel, p.Master, nil, p.IndexCache)
	fixes := repair.Apply(ev, list)
	n := 0
	for row := 0; row < rel.NumRows(); row++ {
		pred := fixes.Pred[row]
		if pred == relation.Null || pred == rel.Code(row, p.Y) {
			continue
		}
		if n >= len(resp.Fixes) {
			return fmt.Errorf("reply is missing the fix of row %d", row)
		}
		f := resp.Fixes[n]
		if f.Row != row || f.New != rel.Dict(p.Y).Value(pred) || f.Score != fixes.Score[row] {
			return fmt.Errorf("reply fix %d (row %d → %q, score %v) differs from repair.Apply (row %d → %q, score %v)",
				n, f.Row, f.New, f.Score, row, rel.Dict(p.Y).Value(pred), fixes.Score[row])
		}
		n++
	}
	if n != len(resp.Fixes) {
		return fmt.Errorf("reply has %d fixes, repair.Apply %d", len(resp.Fixes), n)
	}
	return nil
}
