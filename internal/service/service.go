package service

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/workloads"
)

// Config configures a Service instance.
type Config struct {
	// CacheDir, when set, persists every contiguous-schedule measurement
	// series in an internal/store cache there, so repeated requests across
	// processes replay measurements instead of re-simulating.
	CacheDir string
	// Workers bounds concurrent simulations service-wide and is the default
	// worker count of each prediction's fitting/bootstrap pools. 0 means
	// runtime.GOMAXPROCS(0), the bound sim.CollectSeries and internal/pool
	// use too.
	Workers int
	// CollectSample overrides the per-sample measurement collector (tests
	// stub it; a future perf-based backend plugs in here). nil means
	// sim.Collect.
	CollectSample func(w sim.Workload, m *machine.Config, cores int, scale float64) (counters.Sample, error)
	// FitCacheSize bounds the sweep planner's fitted-model memo (entries).
	// 0 means DefaultFitCacheSize; a negative size disables the memo
	// entirely (every prediction refits, as before the planner). Evicted
	// artifacts cost one refit to restore — their measurement series stays
	// in the store — so the bound trades memory for refit work only.
	FitCacheSize int
}

// Service executes every versioned API request through one code path:
// resolve names → measure (memoized in process, persisted via the store) →
// predict (core.Pipeline) → respond. A Service is safe for concurrent use;
// one simulation semaphore bounds total measurement CPU across all
// in-flight requests.
type Service struct {
	cfg   Config
	store *store.Store
	sem   chan struct{}

	mu   sync.Mutex
	memo map[store.Key]*memoEntry

	// fitMu guards the sweep planner's fitted-model memo (nil when
	// disabled); see planner.go.
	fitMu sync.Mutex
	fits  *lruCache[*fitEntry]
	// fitsComputed counts fit computations actually run; fitMemoHits counts
	// requests answered from the memo instead.
	fitsComputed atomic.Int64
	fitMemoHits  atomic.Int64
	// fitHook, when set (by tests, before first use), observes every fit
	// computation as it starts.
	fitHook func(artifactKey string)
}

// memoEntry is the in-process collection slot for one series key.
// Concurrent requests share one simulation: the collection runs detached
// from any single requester's context (so one client's disconnect cannot
// fail the others) and is cancelled only when every waiter has given up.
type memoEntry struct {
	// done is closed when the collection goroutine finishes; series, hit
	// and err are immutable afterwards (happens-before via the close).
	done   chan struct{}
	series *counters.Series
	hit    bool
	err    error
	// waiters and cancel are guarded by the service mutex: the last waiter
	// to abandon an unfinished collection cancels it.
	waiters int
	cancel  context.CancelFunc
}

// New builds a Service. A CacheDir that cannot be created or opened is an
// error: a caller that asked for persistence should not silently lose it.
func New(cfg Config) (*Service, error) {
	if cfg.Workers < 0 {
		return nil, badRequest("service: negative worker count %d", cfg.Workers)
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CollectSample == nil {
		cfg.CollectSample = sim.Collect
	}
	s := &Service{
		cfg:  cfg,
		sem:  make(chan struct{}, cfg.Workers),
		memo: map[store.Key]*memoEntry{},
	}
	if cfg.FitCacheSize >= 0 {
		size := cfg.FitCacheSize
		if size == 0 {
			size = DefaultFitCacheSize
		}
		s.fits = newLRUCache[*fitEntry](size)
	}
	if cfg.CacheDir != "" {
		st, err := store.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	return s, nil
}

// StoreDir returns the measurement store directory ("" without one).
func (s *Service) StoreDir() string {
	return s.store.Dir()
}

// resolve turns workload and machine names into registered instances,
// attaching did-you-mean suggestions to failures.
func resolve(workload, mach string) (sim.Workload, *machine.Config, error) {
	w, err := workloads.Lookup(workload)
	if err != nil {
		return nil, nil, &BadRequestError{Err: err}
	}
	m, err := machine.Lookup(mach)
	if err != nil {
		return nil, nil, &BadRequestError{Err: err}
	}
	return w, m, nil
}

// seriesKey is the store (and memo) key of a contiguous 1..maxCores series.
//
//estima:canonical workload mach
func seriesKey(workload, mach string, maxCores int, scale float64) store.Key {
	return store.Key{Workload: workload, Machine: mach, MaxCores: maxCores,
		Scale: scale, Engine: sim.EngineVersion}
}

// series measures workload on machine over the contiguous 1..maxCores
// schedule at the given effective scale: memoized in process (concurrent
// requests share one simulation), persisted through the store when one is
// configured. hit reports a store replay. Cancelling ctx detaches this
// caller; the shared collection itself is cancelled only once no caller is
// left waiting on it, so one client's disconnect never fails another's
// request.
func (s *Service) series(ctx context.Context, w sim.Workload, m *machine.Config, maxCores int, scale float64) (*counters.Series, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	key := seriesKey(w.Name(), m.Name, maxCores, scale)
	s.mu.Lock()
	ent, ok := s.memo[key]
	if !ok {
		s.evictLocked()
		// Collection dedup, prefix case: a completed 1..N entry (N > K) of
		// the same input contains this 1..K schedule — every sample is
		// collected independently, so windowing it is byte-identical to
		// collecting afresh. The derived entry inherits the parent's hit
		// flag, exactly what a caller joining the parent would have seen.
		// A parent that cannot actually be windowed (a corrupted store file
		// can load fewer samples than its key claims) falls through to
		// collection instead of memoizing a broken entry.
		if parent := s.prefixLocked(key); parent != nil {
			if win := windowSeries(parent.series, maxCores); win != nil {
				ent = &memoEntry{done: closedChan, series: win, hit: parent.hit}
				s.memo[key] = ent
				s.mu.Unlock()
				go s.store.Put(key, win) // best-effort, off the lock
				return win, ent.hit, nil
			}
		}
		// Detach the collection from the requester: it must survive this
		// caller's cancellation for the other waiters' sake.
		cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		ent = &memoEntry{done: make(chan struct{}), cancel: cancel}
		s.memo[key] = ent
		go func() {
			defer close(ent.done)
			defer cancel()
			if cached, ok := s.store.Get(cctx, key); ok {
				ent.series, ent.hit = cached, true
				return
			}
			// The store may hold a longer series of the same input whose
			// prefix is this schedule; windowing it replays measurements
			// exactly like an exact hit would.
			if parent, ok := s.store.FindPrefix(cctx, key); ok {
				if win := windowSeries(parent, maxCores); win != nil {
					ent.series, ent.hit = win, true
					s.store.Put(key, win)
					return
				}
			}
			ent.series, ent.err = s.collect(cctx, w, m, sim.CoreRange(maxCores), scale)
			if ent.err == nil {
				s.store.Put(key, ent.series) // best-effort; a bad cache dir must not fail runs
			}
		}()
	}
	ent.waiters++
	s.mu.Unlock()

	select {
	case <-ent.done:
		s.mu.Lock()
		ent.waiters--
		if ent.err != nil && s.memo[key] == ent {
			// A failed collection must not poison the memo for later
			// requests: drop the entry so the next caller retries.
			delete(s.memo, key)
		}
		s.mu.Unlock()
		return ent.series, ent.hit, ent.err
	case <-ctx.Done():
		s.mu.Lock()
		ent.waiters--
		if ent.waiters == 0 {
			select {
			case <-ent.done: // finished anyway; keep the result cached
			default:
				ent.cancel()
				if s.memo[key] == ent {
					delete(s.memo, key)
				}
			}
		}
		s.mu.Unlock()
		return nil, false, ctx.Err()
	}
}

// closedChan is the pre-closed done channel of memo entries that are born
// completed (prefix-derived series need no collection goroutine).
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// prefixLocked (called under s.mu) returns a completed, error-free memo
// entry whose series contains key's 1..MaxCores schedule as a prefix, or
// nil. Among several candidates the shortest wins, so the derived series —
// and its inherited hit flag — never depend on map iteration order.
func (s *Service) prefixLocked(key store.Key) *memoEntry {
	var best *memoEntry
	bestCores := 0
	for k, ent := range s.memo {
		if k.Workload != key.Workload || k.Machine != key.Machine ||
			k.Scale != key.Scale || k.Engine != key.Engine || k.MaxCores <= key.MaxCores {
			continue
		}
		select {
		case <-ent.done:
		default:
			continue // still collecting
		}
		if ent.err != nil || ent.series == nil {
			continue
		}
		if best == nil || k.MaxCores < bestCores {
			best, bestCores = ent, k.MaxCores
		}
	}
	return best
}

// windowSeries returns the 1..maxCores prefix of a longer series as a new
// series, or nil when the parent does not actually start with that
// contiguous schedule (a corrupted store entry must fall back to
// collection). Samples are shared, never copied: series are immutable.
func windowSeries(parent *counters.Series, maxCores int) *counters.Series {
	if parent == nil || len(parent.Samples) < maxCores {
		return nil
	}
	for i := 0; i < maxCores; i++ {
		if parent.Samples[i].Cores != i+1 {
			return nil
		}
	}
	return &counters.Series{
		Workload: parent.Workload,
		Machine:  parent.Machine,
		Scale:    parent.Scale,
		Samples:  parent.Samples[:maxCores:maxCores],
	}
}

// memoLimit bounds how many completed series the in-process memo retains.
// The memo exists to share in-flight collections and give repeat requests a
// pointer-stable fast path; long-term persistence is the disk store's job,
// so a long-running daemon must not grow without bound as clients vary the
// (workload, machine, cores, scale) tuple.
const memoLimit = 256

// evictLocked (serviced under s.mu) drops completed, waiter-less memo
// entries until the map is under memoLimit; in-flight entries are never
// evicted. Eviction order is map order — effectively random, which is fine
// for a safety bound.
func (s *Service) evictLocked() {
	if len(s.memo) < memoLimit {
		return
	}
	for k, ent := range s.memo {
		select {
		case <-ent.done:
			if ent.waiters == 0 {
				delete(s.memo, k)
			}
		default: // still collecting
		}
		if len(s.memo) < memoLimit {
			return
		}
	}
}

// collect runs one measurement per core count across the service-wide
// simulation semaphore. Samples land at their schedule index, so the
// resulting series is deterministic for any concurrency.
func (s *Service) collect(ctx context.Context, w sim.Workload, m *machine.Config, cores []int, scale float64) (*counters.Series, error) {
	samples := make([]counters.Sample, len(cores))
	errs := make([]error, len(cores))
	var wg sync.WaitGroup
	for i, c := range cores {
		wg.Add(1)
		go func(i, c int) {
			defer wg.Done()
			select {
			case s.sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			defer func() { <-s.sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			samples[i], errs[i] = s.cfg.CollectSample(w, m, c, scale)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ser := &counters.Series{Workload: w.Name(), Machine: m.Name, Scale: scale,
		Samples: samples}
	ser.Sort()
	return ser, nil
}

// Series is the in-process fast path behind Collect: measure (or replay
// from the store) the contiguous 1..maxCores schedule of one workload at
// the given effective scale, sharing the service's memoization, store and
// simulation semaphore. The experiment harness and other library callers
// use it to skip the JSON round trip of a CollectRequest.
func (s *Service) Series(ctx context.Context, w sim.Workload, m *machine.Config, maxCores int, scale float64) (*counters.Series, bool, error) {
	return s.series(ctx, w, m, maxCores, scale)
}

// List answers a ListRequest: every registered workload and machine preset.
func (s *Service) List(ctx context.Context, req ListRequest) (*ListResponse, error) {
	if err := checkVersion(req.APIVersion); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp := &ListResponse{APIVersion: APIVersion, Workloads: workloads.Names()}
	for _, m := range machine.Presets() {
		resp.Machines = append(resp.Machines, MachineInfo{
			Name:           m.Name,
			Cores:          m.NumCores(),
			Sockets:        m.Sockets,
			ChipsPerSocket: m.ChipsPerSocket,
			CoresPerChip:   m.CoresPerChip,
			FreqGHz:        m.FreqGHz,
			Arch:           string(m.Arch),
		})
	}
	if req.Verbose {
		resp.WorkloadFamilies = workloadFamilies()
		resp.MachineFamilies = machineFamilies()
	}
	return resp, nil
}

// paramInfos renders a schema's parameters for clients, values in their
// canonical spec formatting.
func paramInfos(params []spec.Param) []ParamInfo {
	out := make([]ParamInfo, len(params))
	for i, p := range params {
		out[i] = ParamInfo{
			Key:     p.Key,
			Type:    p.Kind.String(),
			Default: p.Format(p.Default),
			Min:     p.Format(p.Min),
			Max:     p.Format(p.Max),
			Help:    p.Help,
		}
	}
	return out
}

// workloadFamilies lists every workload family's parameter schema.
func workloadFamilies() []FamilyInfo {
	var out []FamilyInfo
	for _, f := range workloads.Families() {
		out = append(out, FamilyInfo{Name: f.Name, Params: paramInfos(f.Params)})
	}
	return out
}

// machineFamilies lists every machine preset's override schema.
func machineFamilies() []FamilyInfo {
	var out []FamilyInfo
	for _, m := range machine.Presets() {
		out = append(out, FamilyInfo{Name: m.Name, Params: paramInfos(machine.Schema(m).Params)})
	}
	return out
}

// Collect answers a CollectRequest: measure (or replay from the store) one
// series. Contiguous 1..N schedules go through the store and memo; sparse
// schedules are collected directly, as the store is not keyed by them.
func (s *Service) Collect(ctx context.Context, req CollectRequest) (*CollectResponse, error) {
	if err := checkVersion(req.APIVersion); err != nil {
		return nil, err
	}
	w, m, err := resolve(req.Workload, req.Machine)
	if err != nil {
		return nil, err
	}
	cores, err := parseCores(req.Cores, m.NumCores())
	if err != nil {
		return nil, err
	}
	scale := defaultScale(req.Scale)
	var (
		ser *counters.Series
		hit bool
	)
	if sched.ContiguousFromOne(cores) {
		ser, hit, err = s.series(ctx, w, m, len(cores), scale)
	} else {
		ser, err = s.collect(ctx, w, m, cores, scale)
	}
	if err != nil {
		return nil, err
	}
	doc, err := counters.EncodeSeries(ser)
	if err != nil {
		return nil, err
	}
	return &CollectResponse{
		APIVersion: APIVersion,
		Workload:   ser.Workload,
		Machine:    ser.Machine,
		Samples:    len(ser.Samples),
		CacheHit:   hit,
		StoreDir:   s.store.Dir(),
		Series:     doc,
		Decoded:    ser,
	}, nil
}

// Curve answers a CurveRequest: the raw measured curves, never persisted.
func (s *Service) Curve(ctx context.Context, req CurveRequest) (*CurveResponse, error) {
	if err := checkVersion(req.APIVersion); err != nil {
		return nil, err
	}
	w, m, err := resolve(req.Workload, req.Machine)
	if err != nil {
		return nil, err
	}
	cores, err := parseCores(req.Cores, m.NumCores())
	if err != nil {
		return nil, err
	}
	ser, err := s.collect(ctx, w, m, cores, defaultScale(req.Scale))
	if err != nil {
		return nil, err
	}
	doc, err := counters.EncodeSeries(ser)
	if err != nil {
		return nil, err
	}
	return &CurveResponse{
		APIVersion: APIVersion,
		Workload:   ser.Workload,
		Machine:    ser.Machine,
		Samples:    len(ser.Samples),
		Series:     doc,
		Decoded:    ser,
	}, nil
}

// defaultScale maps the zero value to the paper's full-size datasets.
func defaultScale(scale float64) float64 {
	if scale <= 0 {
		return 1
	}
	return scale
}
