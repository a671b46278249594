package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"

	"erminer/internal/cluster"
	"erminer/internal/serve"
)

// churnOpsPerSecond sizes the churn workload's measured phase:
// --seconds 10 runs 3500 operations, about ten seconds on the
// reference host.
const churnOpsPerSecond = 350

// Every writeEvery-th operation is a PATCH /v1/data, alternating a
// masterAppendRows-row master append with one input cell correction.
const (
	writeEvery       = 10
	masterAppendRows = 4
	fleetSize        = 2
	probeBatches     = 16
)

// skewMessage is how the coordinator words the 502 it answers when the
// workers evaluated one batch under different rule generations. The
// fleet answers it while a patch replicates; a batch-cleaning client
// sends the batch again, so the benchmark does too, up to skewRetries
// times, counting every retry and timing the read from its first send.
const (
	skewMessage = "different rule generations"
	skewRetries = 10
)

// fleet is a cluster coordinator on loopback HTTP in front of in-process
// workers.
type fleet struct {
	workers []*worker
	coord   *cluster.Coordinator
	node    *node
}

func startFleet(sw *traceSwitch, hc *http.Client) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < fleetSize; i++ {
		w, err := startWorker("worker", sw)
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		f.workers = append(f.workers, w)
		urls = append(urls, w.node.url)
	}
	ccfg := cluster.Config{Workers: urls}
	if sw != nil {
		ccfg.Client = &http.Client{Transport: &tracedTransport{sw: sw, next: http.DefaultTransport}, Timeout: 20 * time.Second}
	}
	coord, err := cluster.New(ccfg)
	if err != nil {
		return nil, errors.Join(err, f.stop())
	}
	f.coord = coord
	var h http.Handler = coord
	if sw != nil {
		h = tracedHandler(sw, spanCoord, coord)
	}
	if f.node, err = listen(h); err != nil {
		return nil, errors.Join(err, f.stop())
	}
	for _, u := range append(urls, f.node.url) {
		if err := waitReady(hc, u); err != nil {
			return nil, errors.Join(err, f.stop())
		}
	}
	return f, nil
}

func (f *fleet) stop() error {
	var err error
	if f.node != nil {
		err = errors.Join(err, f.node.close())
	}
	if f.coord != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = errors.Join(err, f.coord.Shutdown(ctx.Done()))
		cancel()
	}
	for _, w := range f.workers {
		err = errors.Join(err, w.stop())
	}
	return err
}

// runChurn is the churn workload: reads and data patches through a
// cluster coordinator over two workers.
func runChurn(cfg config) (*result, error) {
	var sw *traceSwitch
	if cfg.trace {
		sw = &traceSwitch{}
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	f, setups, err := repeatSetup(cfg, servingSetups, func() (*fleet, error) { return startFleet(sw, hc) })
	if err != nil {
		return nil, err
	}
	live := f
	defer func() {
		if live != nil {
			logf("stopping fleet: %v", live.stop())
		}
	}()

	rng := rand.New(rand.NewSource(cfg.seed))
	batches, err := makeBatches(f.workers[0].data.ds.Input(), rng, batchPool, func(int) bool { return false })
	if err != nil {
		return nil, err
	}
	ops := churnOpsPerSecond * cfg.seconds
	total := ops
	if cfg.trace {
		total = 2 * ops
	}
	patches, noops, err := makePatches(f.workers[0].data.ds, f.workers[0].data.p.Master, rng, total/writeEvery)
	if err != nil {
		return nil, err
	}
	resps := make([]serve.DataPatchResponse, len(patches))

	gen := newLoadGen(hc, sw)
	read := func(i, b int, rec *opRecord) {
		rec.kind, rec.item = opRead, b
		data := gen.call(i, http.MethodPost, f.node.url+serve.PathRepair, batches[b].body, rec)
		start := rec.start
		for rec.retries < skewRetries && rec.status == http.StatusBadGateway && strings.Contains(rec.errText, skewMessage) {
			rec.retries++
			rec.errText = ""
			data = gen.call(i, http.MethodPost, f.node.url+serve.PathRepair, batches[b].body, rec)
		}
		rec.start = start
		if rec.status != http.StatusOK {
			return
		}
		rec.sum = sha256.Sum256(data)
		v, err := rulesVersionOf(data)
		if err != nil {
			v = -1
		}
		rec.version = v
	}
	do := func(i int, rec *opRecord) {
		if i%writeEvery != writeEvery-1 {
			read(i, i%batchPool, rec)
			return
		}
		k := i / writeEvery
		rec.kind, rec.item = opWrite, k
		data := gen.call(i, http.MethodPatch, f.node.url+serve.PathData, patches[k].body, rec)
		if rec.status != http.StatusOK {
			return
		}
		if err := json.Unmarshal(data, &resps[k]); err != nil {
			rec.status, rec.errText = 0, "undecodable patch reply: "+err.Error()
		}
	}

	warm := gen.run(0, batchPool, func(i int, rec *opRecord) { read(i, i, rec) })
	counters := func() ([]float64, error) {
		var out []float64
		for _, w := range f.workers {
			v, err := scrapeMetric(hc, w.node.url, "index_builds_total")
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		for _, name := range []string{"retries_total", "redispatches_total"} {
			v, err := scrapeMetric(hc, f.node.url, name)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	before, err := counters()
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
	after, err := counters()
	if err != nil {
		return nil, err
	}
	heapMB := liveHeapMB()

	res := newResult()
	reads, writes := countOps(recs, opRead), countOps(recs, opWrite)
	res.Attempted = reads.attempted + writes.attempted
	res.Failed = reads.failed + writes.failed
	logf("churn reads: %s", reads)
	logf("churn writes: %s", writes)

	// Oracles: the fleet converged, every probe answer through the
	// coordinator is byte-identical to each worker's direct answer, and
	// every 200 read and patch reply matches a single node that replays
	// the patches in the order the coordinator applied them.
	if err := checkConverged(hc, f, noops); err != nil {
		return res.wrong(err), nil
	}
	if err := checkProbes(hc, f, batches[:probeBatches]); err != nil {
		return res.wrong(err), nil
	}
	if err := live.stop(); err != nil {
		return nil, err
	}
	live = nil
	all := append(append([]opRecord(nil), warm...), recs...)
	if err := unexpected(all); err != nil {
		return res.wrong(err), nil
	}
	order, err := appliedOrder(recs, resps)
	if err != nil {
		return nil, err
	}
	if err := checkChurnReplies(batches, patches, resps, order, all); err != nil {
		return res.wrong(err), nil
	}

	if !cfg.trace {
		lat, wlat := latencies(recs, opRead, nil, false), latencies(recs, opWrite, nil, false)
		if p99, err := tailQuantile(lat, 0.99); err == nil {
			note("read_p99_ms", "ms", p99)
		}
		note("read_retried_frac", "ratio", float64(reads.retries)/float64(reads.attempted))
		res.setEndToEnd(setups, heapMB, ph.wall, lat, wlat)
		return res, nil
	}

	ph.setRuntime(res, ops)
	res.set("cluster.skew_retries", "count", float64(reads.retries))
	note("measure.index_builds_per_op", "count", (after[0]+after[1]-before[0]-before[1])/float64(len(recs)))
	note("cluster.retries", "count", after[2]-before[2])
	note("cluster.redispatches", "count", after[3]-before[3])
	note("trace.overhead_frac", "ratio", median(latencies(recs, opRead, traced, true))/median(latencies(recs, opRead, traced, false))-1)
	if err := noteClusterLayers(recs, traced, t.snapshot()); err != nil {
		return nil, err
	}
	c, err := buildServingData()
	if err != nil {
		return nil, err
	}
	applied := make([]patchOp, len(order))
	want := make([]serve.DataPatchResponse, len(order))
	for i, k := range order {
		applied[i], want[i] = patches[k], resps[k]
	}
	t.record("replay.layers", -1, func() {
		err = setLayers(res, corpus{ds: c.ds, p: c.p, rules: c.rules, mined: c.mined}, batches[:replayBatches], applied, want, cfg.seed)
	})
	if err != nil {
		return nil, err
	}
	return res, t.write(spanFile("churn", cfg.seed))
}

// appliedOrder returns the indices of the applied patches in the order
// the fleet applied them: by the rule generation each left serving, a
// generation's own patch before the patches that did not re-score any
// rule, and those by data version.
func appliedOrder(recs []opRecord, resps []serve.DataPatchResponse) ([]int, error) {
	var order []int
	for i := range recs {
		if recs[i].kind != opWrite {
			continue
		}
		if recs[i].status != http.StatusOK {
			return nil, fmt.Errorf("patch %d failed (HTTP %d: %s); the reference cannot follow the fleet's data past it",
				recs[i].item, recs[i].status, recs[i].errText)
		}
		order = append(order, recs[i].item)
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := resps[order[a]], resps[order[b]]
		if ra.RulesVersion != rb.RulesVersion {
			return ra.RulesVersion < rb.RulesVersion
		}
		if (ra.Revalidated == 0) != (rb.Revalidated == 0) {
			return ra.Revalidated > 0
		}
		if ra.Target != rb.Target {
			return ra.Target < rb.Target
		}
		return ra.DataVersion < rb.DataVersion
	})
	return order, nil
}

// checkChurnReplies replays the applied patches on a single node built
// from the same seed. Each patch reply must match the fleet's, and each
// 200 read must be byte-identical to the single node's answer under the
// rule generation the read reports. A generation fixes the answer:
// every master append re-scores every rule, and input corrections do
// not change repair answers except through the rules they re-score.
func checkChurnReplies(batches []batch, patches []patchOp, resps []serve.DataPatchResponse, order []int, recs []opRecord) error {
	data, err := buildServingData()
	if err != nil {
		return err
	}
	ref, err := serve.New(data.p, data.rules, serve.Config{})
	if err != nil {
		return err
	}
	defer func() { logf("stopping reference: %v", shutdownServer(ref)) }()

	var reads []int
	for i := range recs {
		if recs[i].kind == opRead && recs[i].status == http.StatusOK {
			reads = append(reads, i)
		}
	}
	sort.SliceStable(reads, func(a, b int) bool { return recs[reads[a]].version < recs[reads[b]].version })

	version := int64(1)
	next := 0
	apply := func() error {
		k := order[next]
		next++
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		got, _, err := ref.PatchData(ctx.Done(), patches[k].req)
		if err != nil {
			return fmt.Errorf("reference patch %d: %w", k, err)
		}
		want := resps[k]
		if got.RulesVersion != want.RulesVersion || got.RulesETag != want.RulesETag || got.DataVersion != want.DataVersion ||
			got.Rows != want.Rows || got.Revalidated != want.Revalidated || got.Dropped != want.Dropped || got.RulesActive != want.RulesActive {
			return fmt.Errorf("patch %d: fleet replied %+v, single node %+v", k, want, got)
		}
		version = got.RulesVersion
		return nil
	}
	answers := map[int][sha256.Size]byte{}
	for _, i := range reads {
		r := &recs[i]
		for next < len(order) && resps[order[next]].RulesVersion <= r.version {
			if err := apply(); err != nil {
				return err
			}
			clear(answers)
		}
		if r.version != version {
			return fmt.Errorf("a read reports rules_version %d, which no patch left serving", r.version)
		}
		sum, ok := answers[r.item]
		if !ok {
			body, err := serveInProcess(ref, http.MethodPost, serve.PathRepair, batches[r.item].body)
			if err != nil {
				return err
			}
			sum = sha256.Sum256(body)
			answers[r.item] = sum
		}
		if r.sum != sum {
			return fmt.Errorf("read of batch %d under generation %d differs from the single node's answer", r.item, r.version)
		}
	}
	for next < len(order) {
		if err := apply(); err != nil {
			return err
		}
	}
	logf("churn oracle: %d reads and %d patches match the single-node replay", len(reads), len(order))
	return nil
}

// checkConverged sends each worker the same no-op patches and requires
// equal data versions and rule etags.
func checkConverged(hc *http.Client, f *fleet, noops [2]serve.DataPatchRequest) error {
	for _, req := range noops {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		var first serve.DataPatchResponse
		for i, w := range f.workers {
			data, err := doRequest(hc, http.MethodPatch, w.node.url+serve.PathData, body)
			if err != nil {
				return fmt.Errorf("worker %d: %w", i, err)
			}
			var got serve.DataPatchResponse
			if err := json.Unmarshal(data, &got); err != nil {
				return err
			}
			if i == 0 {
				first = got
			} else if got.DataVersion != first.DataVersion || got.RulesETag != first.RulesETag {
				return fmt.Errorf("%s data: worker %d reports data_version %d, rules_etag %s; worker 0 %d, %s",
					req.Target, i, got.DataVersion, got.RulesETag, first.DataVersion, first.RulesETag)
			}
		}
	}
	return nil
}

// checkProbes requires the coordinator's answer to each probe batch to
// be byte-identical to every worker's direct answer.
func checkProbes(hc *http.Client, f *fleet, probes []batch) error {
	for b, pb := range probes {
		want, err := doRequest(hc, http.MethodPost, f.node.url+serve.PathRepair, pb.body)
		if err != nil {
			return fmt.Errorf("probe %d through the coordinator: %w", b, err)
		}
		for i, w := range f.workers {
			got, err := doRequest(hc, http.MethodPost, w.node.url+serve.PathRepair, pb.body)
			if err != nil {
				return fmt.Errorf("probe %d on worker %d: %w", b, i, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("probe %d: worker %d's direct answer differs from the coordinator's", b, i)
			}
		}
	}
	return nil
}

// noteClusterLayers derives the coordinator, HTTP and serve-layer
// figures of the churn workload from the traced phase's spans.
func noteClusterLayers(recs []opRecord, traced []bool, spans []span) error {
	byOp := opSpans(spans, len(recs))
	var selfHTTP, coordSelf, straggler, handler, fanout []float64
	subreqs := 0
	readOps := 0
	for op, ss := range byOp {
		if !traced[op] {
			continue
		}
		r := &recs[op]
		sub := spansNamed(ss, spanSubreq)
		c, k := spansNamed(ss, spanClient), spansNamed(ss, spanCoord)
		if r.kind == opWrite {
			if len(sub) > 0 {
				lo, hi := sub[0].Start, sub[0].End
				for _, s := range sub[1:] {
					lo, hi = min(lo, s.Start), max(hi, s.End)
				}
				fanout = append(fanout, millis(time.Duration(hi-lo)))
			}
			continue
		}
		readOps++
		subreqs += len(sub)
		if r.status != http.StatusOK || len(c) != 1 || len(k) != 1 {
			continue
		}
		selfHTTP = append(selfHTTP, millis(c[0].dur()-k[0].dur()))
		coordSelf = append(coordSelf, millis(k[0].dur()-unionLen(sub)))
		if len(sub) >= 2 {
			lo, hi := sub[0].dur(), sub[0].dur()
			for _, s := range sub[1:] {
				lo, hi = min(lo, s.dur()), max(hi, s.dur())
			}
			straggler = append(straggler, millis(hi-lo))
		}
		for _, s := range spansNamed(ss, spanServe) {
			handler = append(handler, millis(s.dur()))
		}
	}
	if len(selfHTTP) == 0 || len(fanout) == 0 || len(straggler) == 0 {
		return fmt.Errorf("traced phase recorded no complete read or patch spans")
	}
	note("http.roundtrip_self_ms", "ms", median(selfHTTP))
	note("cluster.coord_self_ms", "ms", median(coordSelf))
	note("cluster.subrequests_per_op", "count", float64(subreqs)/float64(readOps))
	note("cluster.straggler_ms", "ms", median(straggler))
	note("cluster.patch_fanout_ms", "ms", median(fanout))
	note("serve.loaded_handler_ms", "ms", median(handler))

	// Reads that overlap a patch wait for the workers to quiesce.
	var overlap, apart []float64
	for i := range recs {
		r := &recs[i]
		if r.kind != opRead || r.status != http.StatusOK {
			continue
		}
		hit := false
		for j := range recs {
			w := &recs[j]
			if w.kind == opWrite && w.start < r.end && r.start < w.end {
				hit = true
				break
			}
		}
		if hit {
			overlap = append(overlap, millis(r.latency()))
		} else {
			apart = append(apart, millis(r.latency()))
		}
	}
	if len(overlap) == 0 || len(apart) == 0 {
		return fmt.Errorf("no reads on one side of the patch-overlap split")
	}
	note("serve.quiesce_stall_ms", "ms", median(overlap)-median(apart))
	return nil
}

// doRequest sends one request and returns the body of a 200 reply.
func doRequest(hc *http.Client, method, url string, body []byte) ([]byte, error) {
	var rec opRecord
	data := newLoadGen(hc, nil).call(0, method, url, body, &rec)
	if rec.status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, rec.status, rec.errText)
	}
	return data, nil
}
