package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"erminer"
	"erminer/internal/core"
	"erminer/internal/relation"
	"erminer/internal/serve"
)

// The serving workloads run erminerd's own set-up: covid at the paper's
// Table I size (input 2500, master 1824), 10% cell noise, and the 50
// EnuMinerH3 rules mined at start-up (erminerd -dataset covid -seed 1
// -noise 0.1 -mine enuminerh3). The served corpus is the same in every
// run, so set-up does the same work every time; the --seed draws the
// traffic.
const (
	// corpusSeed generates the datasets every workload serves or mines.
	corpusSeed     = 1
	servingDataset = "covid"
	noiseRate      = 0.10
	servingTopK    = 50
	batchSize      = 64
	batchPool      = 512
	servingSetups  = 5 // set-ups per run; setup_s is their median
	// conns is the number of closed-loop client connections: erminerd's
	// callers are batch-cleaning pipelines that wait for each reply, and
	// the reference host has two cores, so load is generated with at
	// most that many connections.
	conns = 2
)

// servingData is one node's problem and initial rule set, with the
// figures of the start-up mining that produced the rules.
type servingData struct {
	ds    *erminer.Dataset
	p     *core.Problem
	rules []core.MinedRule
	mined mining
}

// mining is what the layer metrics keep of one EnuMinerH3 run.
type mining struct {
	wall     time.Duration
	explored int
	cacheLen int // master indexes in the shared cache afterwards
}

func buildServingData() (*servingData, error) {
	ds, err := erminer.BuildDataset(servingDataset, erminer.DatasetSpec{Seed: corpusSeed})
	if err != nil {
		return nil, err
	}
	ds.InjectErrors(erminer.NoiseConfig{Rate: noiseRate, Seed: corpusSeed + 1})
	p := ds.Problem(0)
	p.TopK = servingTopK
	p.ShareIndexes()
	var res *core.ResultSet
	wall := timeIt(func() { res, err = erminer.NewEnuMinerH3(erminer.EnuMinerConfig{}).Mine(p) })
	if err != nil {
		return nil, err
	}
	if len(res.Rules) != servingTopK {
		return nil, fmt.Errorf("initial mining found %d rules, want %d", len(res.Rules), servingTopK)
	}
	return &servingData{ds: ds, p: p, rules: res.Rules,
		mined: mining{wall: wall, explored: res.Explored, cacheLen: p.IndexCache.Len()}}, nil
}

// node is one HTTP server on a loopback port.
type node struct {
	url    string
	hs     *http.Server
	served chan error
}

func listen(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, served: make(chan error, 1)}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// close stops the listener and every connection, and waits for Serve
// to return.
func (n *node) close() error {
	err := n.hs.Close()
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// worker is one in-process erminerd: a serve.Server behind a loopback
// listener.
type worker struct {
	data *servingData
	srv  *serve.Server
	node *node
}

func startWorker(role string, sw *traceSwitch) (*worker, error) {
	data, err := buildServingData()
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(data.p, data.rules, serve.Config{Role: role})
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if sw != nil {
		h = tracedHandler(sw, spanServe, srv)
	}
	n, err := listen(h)
	if err != nil {
		return nil, errors.Join(err, shutdownServer(srv))
	}
	return &worker{data: data, srv: srv, node: n}, nil
}

func shutdownServer(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx.Done())
}

func (w *worker) stop() error {
	return errors.Join(w.node.close(), shutdownServer(w.srv))
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// waitReady polls GET /healthz until it answers 200.
func waitReady(hc *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(base + serve.PathHealthz)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			err = errors.Join(err, resp.Body.Close())
			if err == nil && resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s: %v", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// scrapeMetric reads one counter from a /metrics page, matching the
// line by the part of its name after the erminerd_ or ermcluster_
// prefix. The full names stay written only in the packages that emit
// them: ermvet's metric manifest records, for each name, the package
// whose source spells it, and the benchmark only reads them.
func scrapeMetric(hc *http.Client, base, suffix string) (float64, error) {
	resp, err := hc.Get(base + serve.PathMetrics)
	if err != nil {
		return 0, err
	}
	//ermvet:ignore errdrop the page is only read; a close error cannot change the value scraped
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && strings.HasSuffix(f[0], "_"+suffix) {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s/metrics has no *_%s line", base, suffix)
}

// batch is one seeded repair request: 64 tuples drawn from the noisy
// input, pre-encoded so the client spends no time on JSON during the
// measured phase.
type batch struct {
	tuples  []map[string]string
	body    []byte
	explain bool
}

func makeBatches(in *relation.Relation, rng *rand.Rand, n int, explain func(i int) bool) ([]batch, error) {
	names := in.Schema().Names()
	out := make([]batch, n)
	for i := range out {
		b := batch{tuples: make([]map[string]string, batchSize)}
		for k, row := range rng.Perm(in.NumRows())[:batchSize] {
			t := make(map[string]string, len(names))
			for col, name := range names {
				if in.Code(row, col) != relation.Null {
					t[name] = in.Value(row, col)
				}
			}
			b.tuples[k] = t
		}
		body, err := json.Marshal(serve.TupleBatch{Tuples: b.tuples, Explain: explain(i)})
		if err != nil {
			return nil, err
		}
		b.body, b.explain = body, explain(i)
		out[i] = b
	}
	return out, nil
}

// internBatch encodes posted tuples into a batch relation over the
// problem's input schema and dictionaries, as the repair handler does:
// relation.New, then AppendRow per tuple, absent columns as Null.
func internBatch(p *core.Problem, tuples []map[string]string) *relation.Relation {
	schema := p.Input.Schema()
	rel := relation.New(schema, p.Input.Pool())
	vals := make([]string, schema.Len())
	for _, t := range tuples {
		for j := range vals {
			vals[j] = ""
		}
		for col, v := range t {
			vals[schema.Index(col)] = v
		}
		rel.AppendRow(vals)
	}
	return rel
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// opRecord is what the client saw of one operation.
type opRecord struct {
	kind       opKind
	item       int           // batch index of a read, patch index of a write
	status     int           // HTTP status; 0 for a transport error
	start, end time.Duration // since the load generator was made
	sum        [sha256.Size]byte
	version    int64  // rules_version a 200 read was answered under
	retries    int    // mixed-generation 502s answered before this reply
	errText    string // transport error, or the body of a non-200 reply
}

func (r *opRecord) latency() time.Duration { return r.end - r.start }

// loadGen drives a closed loop: conns connections, each sending its
// next operation only after the previous reply has been read.
type loadGen struct {
	hc    *http.Client
	sw    *traceSwitch
	epoch time.Time
}

// call sends one request and reads the whole reply.
func (g *loadGen) call(op int, method, url string, body []byte, rec *opRecord) []byte {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		rec.errText = err.Error()
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	t := g.sw.get()
	var s span
	if t != nil {
		s = span{ID: t.newID(), Op: int64(op), Name: spanClient}
		req.Header.Set(headerOp, strconv.Itoa(op))
		req.Header.Set(headerParent, strconv.FormatInt(s.ID, 10))
		s.Start = t.now()
	}
	rec.start = time.Since(g.epoch)
	resp, err := g.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		err = errors.Join(err, resp.Body.Close())
		rec.status = resp.StatusCode
	}
	rec.end = time.Since(g.epoch)
	if t != nil {
		s.End = t.now()
		t.add(s)
	}
	switch {
	case err != nil:
		rec.status = 0
		rec.errText = err.Error()
		return nil
	case rec.status != http.StatusOK:
		rec.errText = strings.TrimSpace(string(data))
	}
	return data
}

func newLoadGen(hc *http.Client, sw *traceSwitch) *loadGen {
	return &loadGen{hc: hc, sw: sw, epoch: time.Now()}
}

// run executes operations first..first+n-1 over conns connections;
// do performs operation i and fills its record.
func (g *loadGen) run(first, n int, do func(i int, rec *opRecord)) []opRecord {
	recs := make([]opRecord, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				do(first+i, &recs[i])
			}
		}()
	}
	wg.Wait()
	return recs
}

// rulesVersionOf reads the trailing rules_version field of a repair
// response without decoding the whole body.
func rulesVersionOf(body []byte) (int64, error) {
	const key = `"rules_version":`
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return 0, errors.New("response has no rules_version")
	}
	rest := body[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, errors.New("malformed rules_version")
	}
	return strconv.ParseInt(string(bytes.TrimSpace(rest[:j])), 10, 64)
}

// opCounts tallies attempts and failures of one operation type, by
// status.
type opCounts struct {
	attempted, failed int
	byStatus          map[int]int
	retries           int
}

func countOps(recs []opRecord, kind opKind) opCounts {
	c := opCounts{byStatus: map[int]int{}}
	for i := range recs {
		r := &recs[i]
		if r.kind != kind {
			continue
		}
		c.attempted++
		c.byStatus[r.status]++
		if r.status != http.StatusOK {
			c.failed++
		}
		c.retries += r.retries
	}
	return c
}

func (c opCounts) String() string {
	codes := make([]int, 0, len(c.byStatus))
	for code := range c.byStatus {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	var b strings.Builder
	fmt.Fprintf(&b, "%d attempted, %d failed", c.attempted, c.failed)
	for _, code := range codes {
		fmt.Fprintf(&b, "; HTTP %d: %d", code, c.byStatus[code])
	}
	if c.retries > 0 {
		fmt.Fprintf(&b, "; %d mixed-generation 502s retried", c.retries)
	}
	return b.String()
}

// latencies returns the latencies of the 200 answers of one kind, in
// ms. With a non-nil keep, only operations i with keep[i] == want count.
func latencies(recs []opRecord, kind opKind, keep []bool, want bool) []float64 {
	return latenciesOf(recs, func(i int) bool {
		return recs[i].kind == kind && (keep == nil || keep[i] == want)
	})
}

// latenciesOf returns the latencies, in ms, of the 200 answers to the
// operations i that keep selects.
func latenciesOf(recs []opRecord, keep func(i int) bool) []float64 {
	var out []float64
	for i := range recs {
		if recs[i].status == http.StatusOK && keep(i) {
			out = append(out, millis(recs[i].latency()))
		}
	}
	return out
}

// unexpected returns the first failure a correct system never produces
// for these well-formed requests: a transport error or a 4xx other
// than 429.
func unexpected(recs []opRecord) error {
	for i := range recs {
		r := &recs[i]
		switch {
		case r.status == 0:
			return fmt.Errorf("operation %d: transport error: %s", i, r.errText)
		case r.status >= 400 && r.status < 500 && r.status != http.StatusTooManyRequests:
			return fmt.Errorf("operation %d: HTTP %d for a well-formed request: %s", i, r.status, r.errText)
		}
	}
	return nil
}
