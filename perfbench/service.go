package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"calgo/internal/check"
	"calgo/internal/history"
	"calgo/internal/jobs"
)

// Service workload parameters. Rates are offered job submissions per
// second, spread evenly over the phase (an open loop).
const (
	svcFixedRate    = 250.0                  // latency phase: at most half the knee (505-1,192 jobs/s on a 2-vCPU Xeon VM)
	svcLimit        = 100 * time.Millisecond // job p99 limit for max_jobs_per_s
	svcRungJobs     = 1000                   // jobs per ladder rung: p99 has 10 beyond it
	svcLadderBase   = 100.0                  // rung k offers svcLadderBase * 1.1^k jobs/s
	svcLadderRungs  = 40
	svcCoarseStep   = 7  // coarse search visits every 7th rung (about x1.95)
	svcCollectEvery = 33 // every 33rd job is a collection history (3%)
	svcResubEvery   = 5  // every 5th job resubmits a CA job with renamed threads (20%)
	svcWarmJobs     = 400
	svcBurstJobs    = 40
	svcBurstHeavy   = 4  // Unsat exchanger rounds at the head of the burst,
	svcHeavyPairs   = 12 // each of 12 pairs: tens of ms of DFS apiece
	svcRestarts     = 25
	svcStreams      = 4
	svcBatchEvents  = 200
	svcBatchEvery   = 100 * time.Millisecond
	svcCorruptEvery = 4                // one stream session in svcCorruptEvery is corrupted
	svcDrainWait    = 45 * time.Second // cald's default -drain is 30s
)

// daemon is one running cald process.
type daemon struct {
	cmd   *exec.Cmd
	url   string
	done  chan struct{}
	err   error // cmd.Wait's result, set before done closes
	mu    sync.Mutex
	lines []string // last stderr lines, for diagnostics
}

var (
	servingURL = regexp.MustCompile(`msg="cald serving".*url=(http://\S+)`)
	// signalReady matches the line cald logs for its retention policy,
	// which it does only after its SIGTERM handler is in place. cald
	// answers requests before that, and a SIGTERM in between kills it
	// instead of draining it.
	signalReady = regexp.MustCompile(`msg="retention policy active"`)
)

// startCald execs cald on the durable state in dir and returns once it
// answers its first request with a 2xx, with the time that took, and
// has its SIGTERM handler in place. The retention policy it is given
// only makes it log signalReady: a ten-year age limit swept once a day
// expires nothing within a run.
func startCald(bin, dir string, client *http.Client) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-journal", filepath.Join(dir, "journal.jsonl"), "-store", filepath.Join(dir, "store"),
		"-retention-max-age", "87600h", "-retention-interval", "24h")
	// If the benchmark dies (a timeout's kill, say), cald goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting cald: %w", err)
	}
	urls := make(chan string, 1) // one send: the serving line appears once
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stderr)
		sent, signalled := false, false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.lines = append(d.lines, line)
			if len(d.lines) > 20 {
				d.lines = d.lines[1:]
			}
			d.mu.Unlock()
			if m := servingURL.FindStringSubmatch(line); m != nil && !sent {
				urls <- m[1]
				sent = true
			}
			if !signalled && signalReady.MatchString(line) {
				close(ready)
				signalled = true
			}
		}
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.url = <-urls:
	case <-d.done:
		return nil, 0, fmt.Errorf("cald exited before serving: %v: %s", d.err, d.tail())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("cald did not announce its address: %s", d.tail())
	}
	for {
		resp, err := client.Get(d.url + "metrics")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
			resp.Body.Close()
			if resp.StatusCode/100 == 2 {
				setup := time.Since(t0)
				select {
				case <-ready:
					return d, setup, nil
				case <-d.done:
					return nil, 0, fmt.Errorf("cald exited after serving: %v: %s", d.err, d.tail())
				case <-time.After(60 * time.Second):
					d.kill()
					return nil, 0, fmt.Errorf("cald did not log that its SIGTERM handler is in place: %s", d.tail())
				}
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("cald never answered 2xx: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.lines, "\n")
}

// stop sends SIGTERM and waits for cald to drain and exit; it must exit
// 0 within its drain deadline.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
	case <-time.After(svcDrainWait):
		d.kill()
		return fmt.Errorf("cald did not exit within %v of SIGTERM", svcDrainWait)
	}
	if d.err != nil {
		return fmt.Errorf("cald exited with %v after SIGTERM: %s", d.err, d.tail())
	}
	return nil
}

// kill ends cald at once and waits for it; used only on error paths.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Kill() //nolint:errcheck // already exiting is fine
	<-d.done
}

// metrics scrapes cald's Prometheus exposition into name -> value.
func metrics(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// svcReq is one scheduled request of the open loop: a job submission
// or a stream batch.
type svcReq struct {
	due time.Time
	job *svcJob
	fd  *feed
}

// svcJob is one job submission and what came of it.
type svcJob struct {
	in     *input
	src    string // the history as sent (threads renamed for resubmits)
	due    time.Time
	sent   time.Time
	acked  time.Time
	status int
	err    error
	doc    jobs.Job
}

// feed is one stream batch.
type feed struct {
	st      *session
	seq     int // index of the batch in its stream
	first   int // index of the batch's first event in the stream
	body    string
	due     time.Time
	sent    time.Time
	replied time.Time
	status  int
	err     error
	v       streamVerdict
}

// session is one /streams session of the latency phase.
type session struct {
	id        string
	h         history.History
	corruptAt int // exact event index of the violation; -1 for a clean stream

	mu   sync.Mutex
	turn *sync.Cond // signalled when sent grows
	sent int        // batches sent so far
}

// await blocks until every batch before batch seq has been sent. The
// batches are taken from the queue in order, so the one it waits for is
// already in flight on another worker.
func (st *session) await(seq int) {
	st.mu.Lock()
	for st.sent != seq {
		st.turn.Wait()
	}
	st.mu.Unlock()
}

// advance records that the batch in flight was sent.
func (st *session) advance() {
	st.mu.Lock()
	st.sent++
	st.turn.Broadcast()
	st.mu.Unlock()
}

type streamVerdict struct {
	Status  string `json:"status"`
	AtEvent int64  `json:"at_event"`
}

type streamDoc struct {
	ID      string        `json:"id"`
	Verdict streamVerdict `json:"verdict"`
}

// pools holds pre-generated job histories; jobs cycle through them in a
// fixed pattern, so every seed and every rung offers the same mix.
type pools struct {
	ca, coll []input
	heavy    []input // the burst's head
	n        int     // jobs drawn so far
	nCA      int
	nColl    int
	r        *rand.Rand
	history  []*svcJob // CA jobs submitted so far, for resubmits
}

// newPools generates the CA histories and 48 collection histories: a
// queue, set and pqueue history at each of 8 sizes log-spaced from 1k to
// 8k events (the same sizes for every seed), each Sat and corrupted. Stack histories are left out: the
// stack monitor punts on some of them depending on the seed, and the DFS
// fallback then makes cald's tail and memory a matter of the seed
// (check-long measures that gap).
func newPools(seed int64) *pools {
	r := rand.New(rand.NewSource(seed ^ 0x5e41ce))
	p := &pools{ca: genCACorpus(r.Int63(), 2000), r: r}
	var kinds []longKind
	for _, k := range longKinds {
		if k.name != "stack" {
			kinds = append(kinds, k)
		}
	}
	const sizes = 8
	n := 2 * sizes * len(kinds)
	for i := 0; i < n; i++ {
		k := kinds[i%len(kinds)]
		stratum := (i / len(kinds)) % sizes
		events := int(math.Exp(math.Log(1000) + (float64(stratum)+0.5)/sizes*math.Log(8)))
		h := k.gen(events/2, longThreads, r.Int63(), "C")
		in := input{Kind: k.name, Spec: k.spec, Object: "C", Mode: "cal",
			Name: fmt.Sprintf("coll-%s-%d", k.name, events)}
		if i >= n/2 {
			corruptLong(&in, h, k.name)
		}
		p.coll = append(p.coll, finish(in, h))
	}
	r.Shuffle(len(p.coll), func(i, j int) { p.coll[i], p.coll[j] = p.coll[j], p.coll[i] })
	for i := 0; i < svcBurstHeavy; i++ {
		in := genExchanger(r, svcHeavyPairs, true)
		in.Name = fmt.Sprintf("heavy-exchanger-%d", i)
		p.heavy = append(p.heavy, in)
	}
	return p
}

// burst lays out the heavy jobs and then svcBurstJobs jobs of the mix,
// all due at once. The heavy ones keep cald's workers busy, so most of
// the rest are still queued when cald is stopped and must be resumed by
// the next instance.
func (p *pools) burst(at time.Time) []*svcJob {
	var out []*svcJob
	for i := range p.heavy {
		out = append(out, &svcJob{in: &p.heavy[i], src: p.heavy[i].Src, due: at})
	}
	return append(out, p.schedule(1e6, svcBurstJobs, at)...)
}

// next draws the next job: a collection history, a renamed resubmission
// of a CA job sent 100-300 jobs earlier, or a fresh CA history.
func (p *pools) next() *svcJob {
	p.n++
	switch {
	case p.n%svcCollectEvery == 0:
		in := &p.coll[p.nColl%len(p.coll)]
		p.nColl++
		return &svcJob{in: in, src: in.Src}
	case p.n%svcResubEvery == 0 && len(p.history) > 300:
		orig := p.history[len(p.history)-100-p.r.Intn(200)]
		src, err := renameThreads(orig.in.Src, 100+p.r.Intn(100))
		if err == nil {
			return &svcJob{in: orig.in, src: src}
		}
	}
	in := &p.ca[p.nCA%len(p.ca)]
	p.nCA++
	j := &svcJob{in: in, src: in.Src}
	p.history = append(p.history, j)
	return j
}

// schedule lays out n jobs evenly at rate from start.
func (p *pools) schedule(rate float64, n int, start time.Time) []*svcJob {
	out := make([]*svcJob, n)
	for i := range out {
		out[i] = p.next()
		out[i].due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	return out
}

// loadgen issues requests over at most workers connections.
type loadgen struct {
	client  *http.Client
	workers int
	url     string
}

func (g *loadgen) post(url, ctype, body string) (*http.Response, error) {
	return g.client.Post(url, ctype, strings.NewReader(body))
}

// submit POSTs one job and records its ack.
func (g *loadgen) submit(j *svcJob) {
	req := jobs.Request{Spec: j.in.Spec, Object: j.in.Object, Threads: j.in.Threads,
		Mode: j.in.Mode, Engine: "auto", History: j.src}
	body, _ := json.Marshal(req) // plain strings and ints always marshal
	j.sent = time.Now()
	resp, err := g.post(g.url+"jobs", "application/json", string(body))
	j.acked = time.Now()
	if err != nil {
		j.err = err
		return
	}
	defer resp.Body.Close()
	j.status = resp.StatusCode
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
		return
	}
	j.err = json.NewDecoder(resp.Body).Decode(&j.doc)
}

// sendFeed POSTs one stream batch and records the verdict it carries.
func (g *loadgen) sendFeed(f *feed) {
	f.sent = time.Now()
	resp, err := g.post(g.url+"streams/"+f.st.id+"/events", "text/plain", f.body)
	f.replied = time.Now()
	if err != nil {
		f.err = err
		return
	}
	defer resp.Body.Close()
	f.status = resp.StatusCode
	var doc streamDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil && resp.StatusCode/100 == 2 {
		f.err = err
	}
	f.v = doc.Verdict
}

// run sends the requests open-loop: workers goroutines, each with at
// most one request in flight, take the requests in due order from one
// shared queue and send each once it is due. A job waits only while every
// connection is busy, not behind one connection's slow request. A
// stream's batches still go out one at a time and in order. Every phase,
// ladder rungs included, uses this one generator.
func (g *loadgen) run(reqs []svcReq) {
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due.Before(reqs[j].due) })
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if wait := time.Until(r.due); wait > 0 {
					time.Sleep(wait)
				}
				if r.job != nil {
					g.submit(r.job)
					continue
				}
				r.fd.st.await(r.fd.seq)
				g.sendFeed(r.fd)
				r.fd.st.advance()
			}
		}()
	}
	wg.Wait()
}

// getJob fetches one job's document.
func (g *loadgen) getJob(id string) (jobs.Job, int, error) {
	var doc jobs.Job
	resp, err := g.client.Get(g.url + "jobs/" + id)
	if err != nil {
		return doc, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
		return doc, resp.StatusCode, nil
	}
	return doc, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&doc)
}

// settle waits until every admitted job is terminal and stores its
// final document, fetching over the workers' connections.
func (g *loadgen) settle(js []*svcJob, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(js); i += g.workers {
				j := js[i]
				if j.err != nil || j.status/100 != 2 || terminal(j.doc.State) {
					continue
				}
				for {
					doc, code, err := g.getJob(j.doc.ID)
					if err == nil && code == http.StatusOK {
						j.doc = doc
						if terminal(doc.State) {
							break
						}
					}
					if time.Now().After(deadline) {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("job %s not terminal after %v (last status %d, err %v)", j.doc.ID, timeout, code, err)
						}
						mu.Unlock()
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

func terminal(s jobs.State) bool {
	return s == jobs.StateDone || s == jobs.StateCanceled
}

// verdictOf maps a job verdict word to the checker's verdict.
func verdictOf(word string) check.Verdict {
	switch word {
	case "OK":
		return check.Sat
	case "VIOLATION":
		return check.Unsat
	}
	return check.Unknown
}

// judgeJob counts a submitted job: a transport error, a non-2xx reply and
// an UNKNOWN verdict are failed operations; a wrong verdict or a job that
// never finished fails the run.
func judgeJob(rep *report, j *svcJob) bool {
	rep.attempted++
	switch {
	case j.err != nil:
		rep.miss("job %s: %v", j.in.Name, j.err)
	case j.status/100 != 2:
		rep.miss("job %s: HTTP %d", j.in.Name, j.status)
	case !terminal(j.doc.State):
		rep.fail("job %s (%s): never finished", j.doc.ID, j.in.Name)
	case verdictOf(j.doc.Verdict) == check.Unknown:
		rep.miss("job %s (%s): UNKNOWN: %s", j.doc.ID, j.in.Name, j.doc.Detail)
	case verdictOf(j.doc.Verdict) != j.in.Want:
		rep.fail("job %s (%s): verdict %s, constructed answer %v", j.doc.ID, j.in.Name, j.doc.Verdict, j.in.Want)
	default:
		return true
	}
	return false
}

// latency is a job's time from due to finished_unix_ns.
func (j *svcJob) latency() time.Duration {
	return time.Unix(0, j.doc.FinishedNS).Sub(j.due)
}

// svcRun holds the state of one service workload run.
type svcRun struct {
	cfg    config
	dir    string
	client *http.Client
	tr     *http.Transport
	d      *daemon
	g      *loadgen
	pools  *pools
	rep    *report
}

func runService(cfg config) (*report, error) {
	dir, err := filepath.Abs(filepath.Join(cfg.workdir, fmt.Sprintf("service-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := &http.Transport{MaxConnsPerHost: cfg.workers, MaxIdleConnsPerHost: cfg.workers, DisableCompression: true}
	s := &svcRun{cfg: cfg, dir: dir, tr: tr, rep: &report{}, pools: newPools(cfg.seed),
		client: &http.Client{Transport: tr, Timeout: time.Minute}}
	defer func() { s.d.kill() }()
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.rep, nil
}

// restart starts a fresh cald on the run's state directory.
func (s *svcRun) restart() (time.Duration, error) {
	s.tr.CloseIdleConnections()
	d, setup, err := startCald(filepath.Join(s.cfg.bin, "cald"), s.dir, s.client)
	if err != nil {
		return 0, err
	}
	s.d = d
	s.g = &loadgen{client: s.client, workers: s.cfg.workers, url: d.url}
	return setup, nil
}

func (s *svcRun) run() error {
	rep := s.rep
	// Warm-up: fill the journal and the store, then stop cald with a burst
	// of jobs still queued so the restart has work to resume.
	if _, err := s.restart(); err != nil {
		return err
	}
	warm := s.pools.schedule(svcFixedRate, svcWarmJobs, time.Now())
	s.g.run(jobReqs(warm))
	if err := s.g.settle(warm, time.Minute); err != nil {
		return err
	}
	for _, j := range warm {
		judgeJob(rep, j)
	}
	burst := s.pools.burst(time.Now())
	s.g.run(jobReqs(burst))
	if err := s.d.stop(); err != nil {
		return fmt.Errorf("warm-up drain: %w", err)
	}

	// Restarts: each one replays the journal and the store; the median
	// time to the first 2xx is setup_s. The first one resumes the burst.
	var setups []float64
	var replayed float64
	resumed := 0
	for i := 0; i < svcRestarts; i++ {
		setup, err := s.restart()
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		stored, err := s.storedVerdicts()
		if err != nil {
			return err
		}
		if i == 0 {
			m, err := metrics(s.client, s.d.url)
			if err != nil {
				return err
			}
			replayed = m["calgo_runstore_replayed_total"]
			if resumed, err = s.resolveBurst(burst, stored); err != nil {
				return err
			}
		}
		// Every job the warm-up ran must still be served from the store.
		for _, j := range warm {
			if v, ok := stored[j.doc.ID]; !j.doc.Cached && (!ok || v != j.doc.Verdict) {
				s.rep.fail("restart %d: warm-up job %s (%s, %s) missing from the store (stored verdict %q)", i+1, j.doc.ID, j.in.Name, j.doc.Verdict, v)
			}
		}
		if i < svcRestarts-1 {
			if err := s.d.stop(); err != nil {
				return fmt.Errorf("restart %d: %w", i+1, err)
			}
		}
	}
	rep.note("burst_resumed", "count", float64(resumed), len(burst), "burst jobs the first restart resumed from the journal")

	if s.cfg.traced {
		if err := s.traced(replayed); err != nil {
			return err
		}
	} else {
		// The first second after the restart is cald warming up (cold
		// caches and connections): its jobs are checked but not timed.
		warmup := int(svcFixedRate)
		ph, err := s.phase(svcFixedRate, warmup+int(svcFixedRate*s.cfg.seconds.Seconds()), nil, false)
		if err != nil {
			return err
		}
		lat := ph.jobLatencies()[warmup:]
		perSecond := windowP99(lat, int(svcFixedRate)) // before a quantile sorts lat
		run := runTimes(ph.jobs[warmup:])
		feed := ph.feedLatencies()
		at := fmt.Sprintf(" at %.0f jobs/s", svcFixedRate)
		rep.add("setup_s", "s", median(setups), len(setups), "exec of the restarted cald to its first 2xx (journal + store replay)")
		rep.add("throughput_per_s", "1/s", ratio(float64(len(ph.jobs)), ph.cpu), len(ph.jobs), "jobs per cald CPU-second"+at)
		rep.add("p50_ms", "ms", median(lat), len(lat), "job_p50_ms"+at+": finished_unix_ns - due time")
		rep.add("tail_ms", "ms", quantile(run, 0.9), len(run), "job_run_p90_ms"+at+": finished - started, jobs cald ran")
		rep.add("decided_share", "ratio", ratio(float64(ph.decided), float64(len(ph.jobs))), len(ph.jobs), "jobs of the latency phase with the right verdict / submitted")
		rep.add("peak_rss_mb", "MB", ph.rssMB, 1, "VmHWM of cald")
		rep.note("job_p75_ms", "ms", quantile(lat, 0.75), len(lat), "")
		rep.note("job_p90_ms", "ms", quantile(lat, 0.9), len(lat), "")
		rep.note("job_p99_ms", "ms", quantile(lat, 0.99), len(lat), "")
		rep.note("job_p99_per_s_ms", "ms", perSecond, len(lat), "p99 of each second of due times, median over the seconds")
		rep.note("feed_p50_ms", "ms", median(feed), len(feed), "stream batch: due time to the POST reply carrying the verdict")
		rep.note("feed_p99_ms", "ms", quantile(feed, 0.99), len(feed), "")
	}
	// Every admitted job is terminal by now; cald must drain and exit 0.
	if err := s.d.stop(); err != nil {
		return fmt.Errorf("final drain: %w", err)
	}
	return nil
}

func jobReqs(js []*svcJob) []svcReq {
	out := make([]svcReq, len(js))
	for i, j := range js {
		out[i] = svcReq{due: j.due, job: j}
	}
	return out
}

// resolveBurst checks that no job of the burst was lost across the drain
// and restart: each is either resumed by the new instance (and must
// finish) or finished during the drain (and must be in the store). It
// returns how many were resumed; a run in which none was has not
// exercised journal resume, and fails.
func (s *svcRun) resolveBurst(burst []*svcJob, stored map[string]string) (int, error) {
	var known []*svcJob // jobs the restarted cald has from its journal
	resumed := 0
	for _, j := range burst {
		if j.err != nil || j.status/100 != 2 {
			judgeJob(s.rep, j)
			continue
		}
		if terminal(j.doc.State) { // answered from the verdict cache at submit
			judgeJob(s.rep, j)
			continue
		}
		doc, code, err := s.g.getJob(j.doc.ID)
		switch {
		case err != nil:
			return 0, err
		case code == http.StatusOK:
			if !doc.Resumed && !terminal(doc.State) {
				s.rep.fail("job %s: known to the restarted cald but neither resumed nor terminal", j.doc.ID)
			}
			j.doc = doc
			known = append(known, j)
			if doc.Resumed {
				resumed++
			}
		default:
			v, ok := stored[j.doc.ID]
			if !ok {
				s.rep.attempted++
				s.rep.fail("job %s (%s) lost across the drain and restart", j.doc.ID, j.in.Name)
				continue
			}
			j.doc.State, j.doc.Verdict = jobs.StateDone, v
			judgeJob(s.rep, j)
		}
	}
	if err := s.g.settle(known, time.Minute); err != nil {
		return 0, err
	}
	for _, j := range known {
		judgeJob(s.rep, j)
	}
	if resumed == 0 {
		s.rep.fail("no job of the %d-job burst was resumed from the journal: cald finished them all during its drain", len(burst))
	}
	return resumed, nil
}

// storedVerdicts reads the verdicts cald persisted in its run store,
// keyed by job id.
func (s *svcRun) storedVerdicts() (map[string]string, error) {
	resp, err := s.client.Get(s.d.url + "runsz?limit=1000")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var recs []struct {
		Report *struct {
			Runs []struct{ Name, Verdict string } `json:"runs"`
		} `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		return nil, fmt.Errorf("decoding /runsz: %w", err)
	}
	out := map[string]string{}
	for _, r := range recs {
		if r.Report != nil && len(r.Report.Runs) > 0 {
			out[r.Report.Runs[0].Name] = r.Report.Runs[0].Verdict
		}
	}
	return out, nil
}

// phaseResult is one measured phase at a fixed rate.
type phaseResult struct {
	jobs     []*svcJob
	feeds    []*feed
	sessions []*session
	decided  int
	rssMB    float64
	cpu      float64 // cald's CPU seconds from the phase's start until its last job finished
	wall     time.Duration
}

func (p *phaseResult) jobLatencies() []float64 {
	var out []float64
	for _, j := range p.jobs {
		if j.err == nil && j.status/100 == 2 && terminal(j.doc.State) {
			out = append(out, ms(j.latency()))
		} else {
			out = append(out, math.Inf(1)) // a refused job misses every limit
		}
	}
	return out
}

// runTimes returns finished - started, in ms, of the jobs cald ran;
// answers from the verdict cache never start.
func runTimes(js []*svcJob) []float64 {
	var out []float64
	for _, j := range js {
		if j.doc.StartedNS > 0 {
			out = append(out, float64(j.doc.FinishedNS-j.doc.StartedNS)/1e6)
		}
	}
	return out
}

// windowP99 splits latencies, in due order, into windows of w and
// returns the median over whole windows of each window's p99. One stall
// of the host (a slow fsync, a descheduled core) delays every job due
// during it; it spoils the p99 of a window or two, not the run's.
// lat itself is left unsorted.
func windowP99(lat []float64, w int) float64 {
	var p99s []float64
	for lo := 0; lo+w <= len(lat); lo += w {
		p99s = append(p99s, quantile(append([]float64(nil), lat[lo:lo+w]...), 0.99))
	}
	return median(p99s)
}

func (p *phaseResult) feedLatencies() []float64 {
	out := make([]float64, 0, len(p.feeds))
	for _, f := range p.feeds {
		out = append(out, ms(f.replied.Sub(f.due)))
	}
	return out
}

// phase offers n jobs of the service mix at rate, with the stream
// sessions alongside, then waits for every job to finish and checks every
// verdict. The latency phase counts its jobs, batches and stream closes
// in attempted and failed. A ladder rung (probe set) counts nothing: a
// rung past the knee is refused by design. It still fails the run on a
// wrong verdict.
func (s *svcRun) phase(rate float64, n int, tr *tracer, probe bool) (*phaseResult, error) {
	ph := &phaseResult{}
	start := time.Now().Add(50 * time.Millisecond)
	ph.jobs = s.pools.schedule(rate, n, start)
	reqs := jobReqs(ph.jobs)
	fs, sessions, err := s.openStreams(time.Duration(float64(n)/rate*float64(time.Second)), start)
	if err != nil {
		return nil, err
	}
	ph.feeds, ph.sessions = fs, sessions
	for _, f := range fs {
		reqs = append(reqs, svcReq{due: f.due, fd: f})
	}
	pid := strconv.Itoa(s.d.cmd.Process.Pid)
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	s.g.run(reqs)
	ph.wall = time.Since(start)
	if err := s.g.settle(ph.jobs, time.Minute); err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	ph.rssMB = peakRSSMB(pid)
	for _, j := range ph.jobs {
		switch {
		case !probe:
			if judgeJob(s.rep, j) {
				ph.decided++
			}
		case j.err == nil && j.status/100 == 2:
			if v := verdictOf(j.doc.Verdict); v != check.Unknown && v != j.in.Want {
				s.rep.attempted++
				s.rep.fail("ladder job %s (%s): verdict %s, constructed answer %v", j.doc.ID, j.in.Name, j.doc.Verdict, j.in.Want)
			}
		}
	}
	if err := s.closeStreams(ph, probe); err != nil {
		return nil, err
	}
	if tr != nil {
		for i, j := range ph.jobs {
			root := tr.id()
			id := int64(i + 1)
			tr.record(tr.id(), root, id, "loadgen.lag", j.due, j.sent)
			tr.record(tr.id(), root, id, "http.submit", j.sent, j.acked)
			if j.doc.StartedNS > 0 {
				sub, st, fin := time.Unix(0, j.doc.SubmittedNS), time.Unix(0, j.doc.StartedNS), time.Unix(0, j.doc.FinishedNS)
				tr.record(tr.id(), root, id, "jobs.queue_wait", sub, st)
				tr.record(tr.id(), root, id, "jobs.run", st, fin)
			}
			tr.record(root, 0, id, "job", j.due, time.Unix(0, j.doc.FinishedNS))
		}
		for i, f := range ph.feeds {
			root := tr.id()
			id := int64(len(ph.jobs) + i + 1)
			tr.record(tr.id(), root, id, "http.feed", f.sent, f.replied)
			tr.record(root, 0, id, "stream.feed", f.due, f.replied)
		}
	}
	return ph, nil
}

// openStreams opens the stream sessions and lays out their batches
// evenly over the phase. One session in svcCorruptEvery carries a
// dequeue of a value never enqueued at a known event index.
func (s *svcRun) openStreams(d time.Duration, start time.Time) ([]*feed, []*session, error) {
	batches := max(1, int(d/svcBatchEvery))
	n := batches * svcBatchEvents
	var feeds []*feed
	var sessions []*session
	for i := 0; i < svcStreams; i++ {
		corruptFrom := -1
		if i%svcCorruptEvery == 0 {
			corruptFrom = n/4 + s.pools.r.Intn(n/2)
		}
		h, at := genQueueStream(s.pools.r.Int63(), n, corruptFrom)
		resp, err := s.g.post(s.g.url+"streams", "application/json", `{"spec":"queue","object":"Q"}`)
		if err != nil {
			return nil, nil, err
		}
		var doc streamDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			return nil, nil, fmt.Errorf("opening stream: HTTP %d: %v", resp.StatusCode, err)
		}
		st := &session{id: doc.ID, h: h, corruptAt: at}
		st.turn = sync.NewCond(&st.mu)
		sessions = append(sessions, st)
		for b := 0; b*svcBatchEvents < len(h); b++ {
			lo, hi := b*svcBatchEvents, min((b+1)*svcBatchEvents, len(h))
			feeds = append(feeds, &feed{st: st, seq: b, first: lo, body: history.Format(h[lo:hi]),
				due: start.Add(time.Duration(b) * svcBatchEvery)})
		}
	}
	return feeds, sessions, nil
}

// closeStreams closes every session and checks each batch reply and
// final verdict: a clean stream never reports a violation; a corrupted
// one reports it at exactly its corrupted event, from the batch that
// carried it on. On a ladder rung (probe set) nothing is counted, and a
// stream that had a batch refused is not checked past it.
func (s *svcRun) closeStreams(ph *phaseResult, probe bool) error {
	refused := map[*session]bool{}
	for _, f := range ph.feeds {
		st := f.st
		if !probe {
			s.rep.attempted++
		}
		switch {
		case refused[st]:
		case f.err != nil || f.status/100 != 2:
			refused[st] = true
			if !probe {
				s.rep.miss("stream %s batch at %d: HTTP %d: %v", st.id, f.first, f.status, f.err)
			}
		case st.corruptAt < 0 || st.corruptAt >= f.first+svcBatchEvents:
			if f.v.Status != "sat-so-far" {
				s.rep.fail("stream %s batch at %d: %s, want sat-so-far", st.id, f.first, f.v.Status)
			}
		case f.v.Status != "violation" || f.v.AtEvent != int64(st.corruptAt):
			s.rep.fail("stream %s batch at %d: %s at event %d, want violation at %d", st.id, f.first, f.v.Status, f.v.AtEvent, st.corruptAt)
		}
	}
	for _, st := range ph.sessions {
		if !probe {
			s.rep.attempted++
		}
		resp, err := s.g.post(s.g.url+"streams/"+st.id+"/close", "application/json", "")
		if err != nil {
			return err
		}
		var doc streamDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if refused[st] {
			continue
		}
		if err != nil {
			return fmt.Errorf("closing stream %s: %w", st.id, err)
		}
		want := "sat-so-far"
		if st.corruptAt >= 0 {
			want = "violation"
		}
		if doc.Verdict.Status != want || (st.corruptAt >= 0 && doc.Verdict.AtEvent != int64(st.corruptAt)) {
			s.rep.fail("stream %s final verdict %s at %d, want %s at %d", st.id, doc.Verdict.Status, doc.Verdict.AtEvent, want, st.corruptAt)
		}
	}
	return nil
}

// ladder finds max_jobs_per_s: the highest rung whose rate cald sustains
// with job p99 within svcLimit, nothing refused and no growing queue.
// Rungs are fixed (svcLadderBase * 1.1^k); a coarse pass over every
// svcCoarseStep-th rung brackets the knee and a bisection over the
// rungs in between finds it. Probe jobs are not counted in attempted:
// a rung past the knee is refused by design.
func (s *svcRun) ladder() (float64, int, error) {
	rate := func(k int) float64 { return svcLadderBase * math.Pow(1.1, float64(k)) }
	probes := 0
	pass := func(k int) (bool, error) {
		probes++
		ph, err := s.phase(rate(k), svcRungJobs, nil, true)
		if err != nil {
			return false, err
		}
		var lat []float64
		for _, j := range ph.jobs {
			if j.err != nil || j.status/100 != 2 {
				s.rep.notes = append(s.rep.notes, fmt.Sprintf("ladder rung %2d: %7.1f jobs/s  refused (HTTP %d)", k, rate(k), j.status))
				return false, nil
			}
			lat = append(lat, ms(j.latency()))
		}
		last := append([]float64(nil), lat[len(lat)*3/4:]...)
		p99, tailMedian := quantile(lat, 0.99), median(last)
		ok := p99 <= ms(svcLimit) && tailMedian <= ms(svcLimit)
		s.rep.notes = append(s.rep.notes, fmt.Sprintf("ladder rung %2d: %7.1f jobs/s  p99 %8.2f ms  last-quarter p50 %8.2f ms  pass %v",
			k, rate(k), p99, tailMedian, ok))
		return ok, nil
	}
	lo, hi := -1, svcLadderRungs
	for k := svcCoarseStep; k < svcLadderRungs; k += svcCoarseStep {
		ok, err := pass(k)
		if err != nil {
			return 0, probes, err
		}
		if !ok {
			hi = k
			break
		}
		lo = k
	}
	if lo < 0 {
		lo = 0 // the first coarse rung failed: bisect below it
		ok, err := pass(0)
		if err != nil || !ok {
			return 0, probes, fmt.Errorf("cald does not sustain even %.0f jobs/s: %v", rate(0), err)
		}
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := pass(mid)
		if err != nil {
			return 0, probes, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rate(lo), probes, nil
}

// traced is the service's traced run: the latency phase once untraced
// and once with spans and a /metrics sampler.
func (s *svcRun) traced(replayed float64) error {
	rep := s.rep
	half := int(svcFixedRate * s.cfg.seconds.Seconds() / 2)
	plain, err := s.phase(svcFixedRate, half, nil, false)
	if err != nil {
		return err
	}
	before, err := metrics(s.client, s.d.url)
	if err != nil {
		return err
	}
	tr := newTracer(true)
	stop := make(chan struct{})
	sampled := make(chan float64, 1) // one send: the sampler's result
	go func() {
		depth := 0.0
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- depth
				return
			case <-tick.C:
				if m, err := metrics(s.client, s.d.url); err == nil {
					depth = math.Max(depth, m["calgo_jobs_queue_depth"])
				}
			}
		}
	}()
	ph, err := s.phase(svcFixedRate, half, tr, false)
	close(stop)
	depth := <-sampled
	if err != nil {
		return err
	}
	after, err := metrics(s.client, s.d.url)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	var wait, submit, lag []float64
	cached := 0
	for _, j := range ph.jobs {
		submit = append(submit, ms(j.acked.Sub(j.sent)))
		lag = append(lag, ms(j.sent.Sub(j.due)))
		if j.doc.Cached {
			cached++
			continue
		}
		if j.doc.StartedNS > 0 {
			wait = append(wait, float64(j.doc.StartedNS-j.doc.SubmittedNS)/1e6)
		}
	}
	run := runTimes(ph.jobs)
	feedLat := ph.feedLatencies()
	for _, f := range ph.feeds {
		lag = append(lag, ms(f.sent.Sub(f.due)))
	}
	n := len(ph.jobs)
	rep.add("jobs.queue_wait_p50_ms", "ms", median(wait), len(wait), "started - submitted, jobs that ran")
	rep.add("jobs.queue_wait_p99_ms", "ms", quantile(wait, 0.99), len(wait), "")
	rep.add("jobs.run_p50_ms", "ms", median(run), len(run), "finished - started")
	rep.add("jobs.run_p99_ms", "ms", quantile(run, 0.99), len(run), "")
	rep.add("http.submit_p50_ms", "ms", median(submit), n, "POST /jobs round trip (parse, fingerprint, journal fsync)")
	rep.add("http.submit_p99_ms", "ms", quantile(submit, 0.99), n, "")
	rep.add("jobs.cache_hit_ratio", "ratio", ratio(float64(cached), float64(n)), n, "jobs answered from the verdict cache / submitted")
	rep.add("jobs.shed", "count", delta("calgo_jobs_shed_total"), 1, "/metrics delta over the traced phase")
	rep.add("jobs.rate_limited", "count", delta("calgo_jobs_rate_limited_total"), 1, "")
	rep.add("jobs.queue_depth_max", "count", depth, 1, "max of calgo_jobs_queue_depth sampled every 100ms")
	rep.add("stream.feed_p50_ms", "ms", median(feedLat), len(feedLat), "batch due time to the POST reply carrying the verdict")
	rep.add("stream.feed_p99_ms", "ms", quantile(feedLat, 0.99), len(feedLat), "")
	rep.add("stream.events", "count", delta("calgo_stream_events_total"), 1, "")
	rep.add("stream.checks", "count", delta("calgo_stream_checks_total"), 1, "")
	rep.add("stream.shed", "count", delta("calgo_stream_shed_total"), 1, "")
	rep.add("stream.resident_hwm", "count", after["calgo_stream_resident_hwm"], 1, "")
	rep.add("runstore.puts", "count", delta("calgo_runstore_puts_total"), 1, "")
	rep.add("runstore.replayed", "count", replayed, 1, "records replayed by the first restart")
	rep.add("loadgen.lag_p99_ms", "ms", quantile(lag, 0.99), len(lag), "how late requests left against their due times")
	rep.add("loadgen.sent", "count", float64(len(lag)), 1, "jobs and stream batches")
	rep.add("loadgen.offered_per_s", "1/s", float64(len(lag))/ph.wall.Seconds(), 1, "")
	rep.add("go.gc_cycles", "count", delta("calgo_go_num_gc"), 1, "cald's collections during the traced phase")
	rep.add("go.gc_pause_ms", "ms", delta("calgo_go_gc_pause_ns_sum")/1e6, 1, "")
	maxRate, probes, err := s.ladder()
	if err != nil {
		return err
	}
	rep.add("loadgen.max_jobs_per_s", "1/s", maxRate, probes, fmt.Sprintf("highest ladder rate with job p99 <= %v, nothing refused, no growing queue", svcLimit))
	plainLat := plain.jobLatencies()
	rep.add("trace.overhead_share", "ratio", ratio(median(ph.jobLatencies()), median(plainLat))-1, 2, "traced / untraced job_p50_ms - 1")
	return tr.write(filepath.Join(s.cfg.workdir, "traces"), fmt.Sprintf("service-seed%d.jsonl", s.cfg.seed))
}
