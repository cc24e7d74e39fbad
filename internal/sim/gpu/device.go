package gpu

import (
	"fmt"
	"math"
	"sync"

	"golatest/internal/sim/clock"
)

// Injection is the ground-truth record of one frequency-change request.
// Real hardware never exposes CompleteNs; the simulator records it so the
// methodology's measured switching latency can be validated against the
// injected one (CompleteNs − RequestNs).
type Injection struct {
	RequestNs  int64 // host time the request was issued
	ApplyNs    int64 // host time the command reached the device
	CompleteNs int64 // host time the transition finished
	InitMHz    float64
	TargetMHz  float64
}

// SwitchingLatencyNs returns the ground-truth switching latency of this
// injection: command issue to transition completion.
func (in Injection) SwitchingLatencyNs() int64 { return in.CompleteNs - in.RequestNs }

// Device is one simulated accelerator attached to a host virtual clock.
//
// A Device is not safe for concurrent use, matching the single-threaded
// host loop that drives the benchmark; analysis of returned samples may
// be parallelised freely since samples are plain values.
type Device struct {
	cfg Config
	clk *clock.Clock
	rng *clock.Rand

	tl        *timeline
	setFreq   float64
	lastInj   Injection
	injected  bool // lastInj holds a request
	kernelSeq uint64

	smSpeed []float64

	thermal  thermalState
	energy   energyMeter
	reasons  ThrottleReason
	clampMHz float64 // 0 = unclamped

	busyEndNs int64
	everBusy  bool
	queue     []launch

	// chip holds what the device shares with its replicas; folds is the
	// device's own handle on each of the chip's fold tables it has
	// folded at (nil: too little jitter to fold).
	chip  *chip
	folds map[uint64]*foldCoef
	iters IterCounts

	// kernelScratch and smScratch are the reusable child streams of the
	// materialisation path (one kernel, one SM at a time), re-seeded in
	// place so per-kernel RNG derivation never allocates.
	kernelScratch *clock.Rand
	smScratch     *clock.Rand
}

// New constructs a device from cfg (normalised internally) bound to the
// given host clock.
func New(cfg Config, clk *clock.Clock) (*Device, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	d := &Device{
		cfg:           cfg,
		clk:           clk,
		rng:           clock.NewRand(cfg.Seed, 0x6c6174657374), // "latest"
		kernelScratch: clock.NewRand(0, 0),
		smScratch:     clock.NewRand(0, 0),
		chip:          new(chip),
	}
	d.tl = newTimeline(clk.Now(), cfg.DefaultFreqMHz)
	d.setFreq = cfg.DefaultFreqMHz
	d.smSpeed = make([]float64, cfg.SMCount)
	speedRng := d.rng.Child(1)
	for i := range d.smSpeed {
		d.smSpeed[i] = speedRng.Normal(1, cfg.SMSpeedSigma)
	}
	d.thermal = thermalState{tempC: ambientC, lastUpdateNs: clk.Now()}
	d.energy = energyMeter{lastUpdateNs: clk.Now()}
	return d, nil
}

// Replica returns a fresh copy of the same chip bound to clk: the same
// configuration, per-SM speeds and fold tables, but an idle, cool device
// whose Seed, and so its noise stream, is seed. A device and its
// replicas may run concurrently.
func (d *Device) Replica(clk *clock.Clock, seed uint64) (*Device, error) {
	cfg := d.cfg
	cfg.Seed = seed
	r, err := New(cfg, clk)
	if err != nil {
		return nil, err
	}
	copy(r.smSpeed, d.smSpeed)
	r.chip = d.chip
	return r, nil
}

// chip is the state a device shares with its replicas: the fold tables,
// which depend only on the configuration and the per-SM speeds.
type chip struct {
	mu    sync.Mutex
	folds map[uint64]*foldTable // by nominal host duration; nil: too little jitter
}

// IterCounts counts the iterations a device has executed by how they
// were simulated. Every block's iterations add up to its Iters.
type IterCounts struct {
	// OneByOne iterations each drew their own jitter.
	OneByOne int64
	// Skipped iterations elapsed undelivered, in chunks of one draw per
	// clock segment: prefixes no sink reads, segments a TailFolder does
	// not hear, and the non-candidates of segments it hears.
	Skipped int64
	// Folded iterations reached a TailFolder's Fold, in chunks of one
	// draw per clock segment.
	Folded int64
}

// IterCounts reports how the device has simulated the iterations of
// every kernel materialised so far.
func (d *Device) IterCounts() IterCounts { return d.iters }

// Config returns a copy of the device's normalised configuration.
func (d *Device) Config() Config { return d.cfg }

// Clock returns the host clock the device is bound to.
func (d *Device) Clock() *clock.Clock { return d.clk }

// SetFrequency requests an SM applications-clock change to targetMHz at
// the current host time. The request incurs a bus delay before the device
// receives it and a transition period before the new clock is effective,
// both sampled from the architecture's latency model. The ground-truth
// Injection record is returned.
//
// The caller (normally the nvml layer) is responsible for modelling the
// host-side blocking cost of the driver call.
func (d *Device) SetFrequency(targetMHz float64) (Injection, error) {
	if !d.cfg.SupportsFreq(targetMHz) {
		return Injection{}, fmt.Errorf("gpu: %s: unsupported SM clock %v MHz", d.cfg.Name, targetMHz)
	}
	now := d.clk.Now()
	initMHz := d.tl.freqAt(now)
	tr := d.cfg.Latency.Sample(initMHz, targetMHz, d.rng)
	if tr.BusDelayNs < 0 || tr.DurationNs < 0 {
		return Injection{}, fmt.Errorf("gpu: %s: latency model produced negative transition %+v", d.cfg.Name, tr)
	}
	apply := now + tr.BusDelayNs
	complete := apply + tr.DurationNs
	if initMHz == targetMHz {
		// Setting the already-effective clock completes on receipt.
		complete = apply
	}
	// No later read looks before now or before a queued kernel's
	// launch, so the segments that ended earlier can go: the timeline
	// keeps its storage instead of growing with every request.
	floor := now
	if len(d.queue) > 0 {
		floor = min(floor, d.queue[0].enqueuedNs)
	}
	d.tl.dropBefore(floor)
	d.tl.addRamp(apply, complete, targetMHz, d.cfg.RampSteps)
	d.setFreq = targetMHz

	// Dropping below the power cap releases the power throttle latch.
	if d.cfg.PowerCapMHz > 0 && targetMHz <= d.cfg.PowerCapMHz && d.reasons.Has(ThrottlePower) {
		d.reasons &^= ThrottlePower
		d.thermal.busyAboveCapNs = 0
		d.refreshClamp()
	}

	d.lastInj = Injection{
		RequestNs:  now,
		ApplyNs:    apply,
		CompleteNs: complete,
		InitMHz:    initMHz,
		TargetMHz:  targetMHz,
	}
	d.injected = true
	return d.lastInj, nil
}

// SetFreqMHz reports the last programmed applications clock.
func (d *Device) SetFreqMHz() float64 { return d.setFreq }

// CurrentFreqMHz reports the clock effective right now, including any
// throttle clamp.
func (d *Device) CurrentFreqMHz() float64 {
	now := d.clk.Now()
	c := d.clockAt(now, 0)
	f, _ := c.at(now)
	return f
}

// LastInjection returns the ground-truth record of the most recent
// frequency-change request (SetFrequency returns each one as it is
// issued). ok is false when no request has been issued yet.
func (d *Device) LastInjection() (inj Injection, ok bool) { return d.lastInj, d.injected }

// DeviceTimeAt converts a host timestamp to the device's global-timer
// reading at that instant: offset plus drift, quantised to the timer
// refresh period.
func (d *Device) DeviceTimeAt(hostNs int64) int64 {
	t := hostNs + d.cfg.ClockOffsetNs
	if d.cfg.ClockDriftPPM != 0 {
		t += int64(float64(hostNs) * d.cfg.ClockDriftPPM / 1e6)
	}
	q := d.cfg.TimerQuantumNs
	return t - mod(t, q)
}

// Temperature reports the die temperature in °C at the current host time,
// applying idle cooling since the device last finished work, and releases
// the thermal throttle once the temperature has fallen through the
// hysteresis band.
func (d *Device) Temperature() float64 {
	now := d.clk.Now()
	if now > d.thermal.lastUpdateNs {
		// Between materialised kernels the device is idle.
		d.thermal.evolve(&d.cfg, now, d.tl.freqAt(now), false)
	}
	if d.reasons.Has(ThrottleThermal) &&
		d.thermal.tempC < d.cfg.ThermalLimitC-d.cfg.ThermalHysteresisC {
		d.reasons &^= ThrottleThermal
		d.refreshClamp()
	}
	return d.thermal.tempC
}

// ThrottleReasons reports the active throttle reasons at the current host
// time (refreshing thermal recovery first, like an NVML register read).
func (d *Device) ThrottleReasons() ThrottleReason {
	d.Temperature()
	return d.reasons
}

// refreshClamp recomputes the clock clamp from the active reasons.
func (d *Device) refreshClamp() {
	d.clampMHz = 0
	if d.reasons.Has(ThrottleThermal) {
		d.clampMHz = d.cfg.ThrottleClampMHz
	}
	if d.reasons.Has(ThrottlePower) && d.cfg.PowerCapMHz > 0 {
		if d.clampMHz == 0 || d.cfg.PowerCapMHz < d.clampMHz {
			d.clampMHz = d.cfg.PowerCapMHz
		}
	}
}

// Launch enqueues a kernel for execution. The host clock advances by the
// launch overhead; the kernel itself executes asynchronously in virtual
// time and its timings materialise on Synchronize, into the returned
// handle, which is the sink that records them.
func (d *Device) Launch(spec KernelSpec) (*Kernel, error) {
	k := new(Kernel)
	if err := d.enqueue(launch{spec: spec, sink: k}); err != nil {
		return nil, err
	}
	return k, nil
}

// LaunchWithSink enqueues a kernel whose iteration timings stream into
// sink during materialisation instead of being stored. Such a kernel
// has no handle: neither it nor its per-block sample slices are
// allocated, so a steady stream of launches allocates nothing.
func (d *Device) LaunchWithSink(spec KernelSpec, sink SampleSink) error {
	if sink == nil {
		return fmt.Errorf("gpu: %s: nil sink", d.cfg.Name)
	}
	folder, _ := sink.(TailFolder)
	_, meanOnly := sink.(*TailSink)
	return d.enqueue(launch{spec: spec, sink: sink, folder: folder, meanOnly: meanOnly})
}

// enqueue validates l's spec, charges the launch overhead and queues l.
func (d *Device) enqueue(l launch) error {
	if err := l.spec.validate(&d.cfg); err != nil {
		return err
	}
	d.clk.Advance(launchOverheadNs)
	l.enqueuedNs = d.clk.Now()
	d.queue = append(d.queue, l)
	return nil
}

// Synchronize blocks the host until every queued kernel has finished:
// kernels are materialised FIFO against the frequency timeline, thermal
// state advances, throttles latch, and the host clock lands on the final
// completion time.
func (d *Device) Synchronize() {
	for i := range d.queue {
		d.materialize(&d.queue[i])
	}
	clear(d.queue)
	d.queue = d.queue[:0]
	if d.busyEndNs > d.clk.Now() {
		d.clk.AdvanceTo(d.busyEndNs)
	}
}

// Pending reports the number of launched, not-yet-synchronised kernels.
func (d *Device) Pending() int { return len(d.queue) }

// materialize computes the per-SM iteration timings of kernel k.
func (d *Device) materialize(k *launch) {
	start := k.enqueuedNs
	if d.busyEndNs > start {
		start = d.busyEndNs
	}

	// Wake-up: a kernel arriving after an idle gap runs at idle clocks
	// for the wake delay before the programmed frequency takes hold.
	wakeEnd := int64(0)
	idleGap := start - d.busyEndNs
	if !d.everBusy || idleGap > d.cfg.IdleTimeoutNs {
		wakeEnd = start + d.cfg.WakeDelayNs
	}

	// Idle cooling and idle draw from the last update until the kernel
	// start.
	if start > d.thermal.lastUpdateNs {
		d.thermal.evolve(&d.cfg, start, d.tl.freqAt(start), false)
	}
	d.energy.accumulate(start, d.cfg.IdlePowerW)

	d.kernelSeq++
	kernelRng := d.rng.ChildInto(d.kernelScratch, 0x1000+d.kernelSeq)

	blocks := k.spec.Blocks
	if blocks == 0 || blocks > d.cfg.SMCount {
		blocks = d.cfg.SMCount
	}
	clk := d.clockAt(start, wakeEnd)

	var maxEnd int64
	for sm := 0; sm < blocks; sm++ {
		smRng := kernelRng.ChildInto(d.smScratch, uint64(sm))
		end := d.runSM(k, sm, start, clk, smRng)
		if end > maxEnd {
			maxEnd = end
		}
	}
	if h, ok := k.sink.(*Kernel); ok {
		h.startNs, h.endNs, h.done = start, maxEnd, true
	}

	// Heat and energy: walk the kernel's busy window once, at the
	// effective clock of each segment, so long transitions and wake
	// periods heat and draw honestly. The walk precedes the latching
	// below, so a throttle this kernel latches applies only from the next
	// kernel on, for energy as for time.
	for t := start; t < maxEnd; {
		f, segEnd := clk.at(t)
		segEnd = min(segEnd, maxEnd)
		d.thermal.evolve(&d.cfg, segEnd, f, true)
		d.energy.accumulate(segEnd, d.cfg.busyPowerW(f))
		t = segEnd
	}
	if d.thermal.tempC > d.cfg.ThermalLimitC && !d.reasons.Has(ThrottleThermal) {
		d.reasons |= ThrottleThermal
		d.refreshClamp()
	}
	if d.cfg.PowerCapMHz > 0 && d.thermal.busyAboveCapNs > d.cfg.PowerCapDelayNs &&
		!d.reasons.Has(ThrottlePower) {
		d.reasons |= ThrottlePower
		d.refreshClamp()
	}

	d.busyEndNs = maxEnd
	d.everBusy = true
}

// runSM executes the iteration loop of one SM-resident block, streaming
// quantised device timestamps into the kernel's sink from the first
// iteration it asks for, and returns the host time at which the block
// finished. clk is the kernel's effective clock, positioned at its start.
//
// The loop walks the effective clock's constant-clock segments (see
// clockCursor), the wake window being one. Within one cached
// segment, iterations no sink reads one by one elapse in chunks: n
// iterations of nominal duration μ (SM speed and clamp included) take
// roundNs(μ·(n + σ·√n·Z)) for one standard normal Z from the SM's
// stream. A sum of iid normals is normal, so the chunk matches the
// per-iteration sum in distribution; chunkIters keeps it clear of the
// segment's end, so a chunk never crosses wakeEnd either. Four kinds of
// iteration chunk this way:
//   - those before the sink's first wanted one, which are not delivered
//     (a sink that declines the block wants none of them);
//   - a TailFolder's iterations in a segment it does not hear: while its
//     block is not in the tail, the device asks Band on entering each
//     segment (gate). If no iteration of the segment's nominal device
//     duration, give or take trustSigmas·σ·μ plus one timer quantum and
//     rounding, can reach the band, the segment's share elapses
//     undelivered, and the next delivered iteration takes a fresh start
//     stamp;
//   - a TailFolder's non-candidates in a segment it hears: when only
//     jitter draws in one interval of probability under thinBelow can
//     reach the band, the device draws how many draws outside it come
//     before the next one inside, lets them elapse in one chunk with
//     the moments of a draw outside (thin.go), and delivers the
//     candidate with its draw from the truncated normal. After each
//     candidate it asks Band again;
//   - a TailFolder's tail, from the first iteration at which InTail
//     reports true (asked after BlockStart and after each delivered
//     iteration). A tail chunk of at least minFoldIters iterations is
//     handed over through Fold: its n, its exact Σd (the chunk's
//     quantised device-time end minus its start) and a draw of its Σd²
//     (fold.go), or 0 for a TailSink, which reads no Σd². Shorter runs,
//     and other sinks' tails whose jitter is under minFoldJitter timer
//     quanta, are delivered one by one.
//
// Skipped counts the first three kinds, Folded the last.
//
// A device whose IterJitterSigma exceeds 0.05 never chunks, as the 0.5
// jitter clamp would sit within trustSigmas·σ. Every other iteration
// draws its own jitter. Each delivered boundary is converted to device
// time once: the end of iteration i is the start of i+1.
//
// An iteration that finishes inside the cached segment costs one
// division by the segment's cycles-per-ns rate — the same float
// operations, in the same order, as integrate's first step, so the
// durations are bit-identical. An iteration that crosses a segment
// boundary (the wake window's end included) takes the full integrate
// walk.
func (d *Device) runSM(k *launch, sm int, start int64, clk clockCursor, r *clock.Rand) int64 {
	iters := k.spec.Iters
	from := k.sink.BlockStart(sm, iters)
	speed := d.smSpeed[sm]
	t := start
	// devT is the device time of t after a delivered or folded
	// iteration; stale marks it unread, at the start and after an
	// undelivered chunk.
	var devT int64
	stale := true
	// segEnd and rate describe the cached segment, valid while
	// t < segEnd; the timeline and clamp are fixed while a kernel
	// materialises.
	segEnd, rate := int64(math.MinInt64), 0.0
	sigma := d.cfg.IterJitterSigma
	chunks := sigma <= 0.05
	// tail: the sink folds from here on; folding: it still may (false
	// once the jitter proves too small to fold); deaf: the block, not
	// yet in the tail, cannot hear the cached segment's iterations;
	// thin: it hears them, but only candidates (th) can reach its band;
	// regate: the block's band is asked again before the next iteration.
	folder := k.folder
	tail := folder != nil && folder.InTail(sm)
	folding := folder != nil
	var deaf, thin, regate bool
	var th thinning
	skipped, folded := 0, 0
	for i := 0; i < iters; i++ {
		if t >= segEnd {
			var f float64
			f, segEnd = clk.at(t)
			rate = f * speed / 1000
			regate = true
		}
		if regate {
			regate, deaf, thin = false, false, false
			if folder != nil && !tail && chunks {
				deaf, thin, th = d.gate(folder, sm, k.spec.CyclesPerIter/rate, sigma)
			}
		}
		// z is a candidate's jitter draw, when drawn is set.
		var z float64
		drawn := false
		if chunks {
			mu := k.spec.CyclesPerIter / rate
			skip := from - i
			if deaf && !tail {
				skip = iters - i
			}
			if skip > 0 {
				if n := chunkIters(skip, t, segEnd, mu, sigma); n > 0 {
					t += chunkNs(r, n, mu, sigma)
					i += n - 1
					skipped += n
					stale = true
					continue
				}
			} else if tail && folding {
				if n := chunkIters(iters-i, t, segEnd, mu, sigma); n >= minFoldIters {
					var c *foldCoef // nil for a mean-only sink
					if !k.meanOnly {
						c = d.foldCoef(mu)
						folding = c != nil
					}
					if folding {
						if stale {
							devT, stale = d.DeviceTimeAt(t), false
						}
						t += chunkNs(r, n, mu, sigma)
						end := d.DeviceTimeAt(t)
						sum := end - devT
						var sumSq int64
						if c != nil {
							sumSq = c.sumSquares(r, n, sum)
						}
						folder.Fold(sm, n, sum, sumSq)
						devT = end
						i += n - 1
						folded += n
						continue
					}
				}
			} else if thin {
				if n := chunkIters(iters-i, t, segEnd, mu, sigma); n > 0 {
					miss := th.misses(r, n)
					if miss > 0 {
						t += th.missNs(r, miss, mu, sigma)
						skipped += miss
						stale = true
					}
					if miss == n {
						i += n - 1
						continue
					}
					i += miss
					z, drawn = th.candidate(r), true
				}
			}
		}
		jitter := 1 + sigma*z
		if !drawn {
			jitter = r.Normal(1, sigma)
		}
		if jitter < 0.5 {
			jitter = 0.5 // guard the pathological tail; keeps time positive
		}
		cycles := k.spec.CyclesPerIter * jitter
		var dur int64
		if segEnd == math.MaxInt64 || cycles <= float64(segEnd-t)*rate {
			dur = roundNs(cycles / rate)
		} else {
			dur = integrate(t, cycles, speed, &clk)
		}
		if i >= from {
			if stale {
				devT, stale = d.DeviceTimeAt(t), false
			}
			s := IterSample{StartNs: devT, EndNs: d.DeviceTimeAt(t + dur)}
			devT = s.EndNs
			k.sink.Sample(sm, i, s)
			if folder != nil && !tail {
				tail = folder.InTail(sm)
				regate = thin
			}
		}
		t += dur
	}
	d.iters.OneByOne += int64(iters - skipped - folded)
	d.iters.Skipped += int64(skipped)
	d.iters.Folded += int64(folded)
	k.sink.BlockEnd(sm)
	return t
}

// trustSigmas is how many jitter standard deviations a chunk trusts an
// iteration never to stray: chunkIters keeps a chunk that far clear of
// its segment's end, and gate widens an iteration's nominal duration by
// as much before comparing it with a sink's band.
const trustSigmas = 10

// gate asks folder for block's band and returns how block hears the
// iterations of a segment whose nominal host duration is mu ns and
// relative jitter sigma. deaf: none of them can reach the band, as none
// lasts beyond trustSigmas·σ·μ, one timer quantum and 2 ns of rounding of
// the nominal device-clock duration. Otherwise thin, with th, when only
// the rare jitter draws of th's candidate interval can (thin.go).
func (d *Device) gate(folder TailFolder, block int, mu, sigma float64) (deaf, thin bool, th thinning) {
	lo, hi := folder.Band(block)
	scale := 1 + d.cfg.ClockDriftPPM/1e6
	devMu := mu * scale
	slack := float64(d.cfg.TimerQuantumNs) + 2
	margin := trustSigmas*sigma*devMu + slack
	if hi < devMu-margin || lo > devMu+margin {
		return true, false, th
	}
	if sigma <= 0 {
		return false, false, th
	}
	zLo, zHi := candidateZ(lo, hi, mu, sigma, scale, slack)
	if clamp := -0.5 / sigma; zLo <= clamp && clamp <= zHi {
		return false, false, th // clamped draws would be candidates too
	}
	th, thin = newThinning(zLo, zHi)
	return false, thin, th
}

// candidateZ returns the interval of jitter draws z whose iteration, of
// nominal host duration mu ns and jitter 1 + sigma·z, can last between lo
// and hi device ns: its host duration, scaled by the drift, within slack
// of the band, widened by 1 ns for rounding to whole nanoseconds.
func candidateZ(lo, hi, mu, sigma, scale, slack float64) (zLo, zHi float64) {
	return ((lo-slack)/scale - 1 - mu) / (sigma * mu), ((hi+slack)/scale + 1 - mu) / (sigma * mu)
}

// foldCoef returns the tail-fold coefficients for iterations of nominal
// host duration mu ns, or nil when their jitter is below minFoldJitter
// timer quanta. Durations and jitter are scaled to the device clock.
func (d *Device) foldCoef(mu float64) *foldCoef {
	key := math.Float64bits(mu)
	if c, ok := d.folds[key]; ok {
		return c
	}
	var c *foldCoef
	if t := d.foldTable(key, mu); t != nil {
		c = &foldCoef{foldTable: t}
	}
	if d.folds == nil {
		d.folds = make(map[uint64]*foldCoef)
	}
	d.folds[key] = c
	return c
}

// foldTable returns the chip's fold table for nominal host duration mu
// ns (key is its bits), building it on the chip's first fold at mu.
func (d *Device) foldTable(key uint64, mu float64) *foldTable {
	ch := d.chip
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if t, ok := ch.folds[key]; ok {
		return t
	}
	var t *foldTable
	q := float64(d.cfg.TimerQuantumNs)
	devMu := mu * (1 + d.cfg.ClockDriftPPM/1e6)
	if s := d.cfg.IterJitterSigma * devMu; s >= minFoldJitter*q {
		t = newFoldTable(devMu, s, q)
	}
	if ch.folds == nil {
		ch.folds = make(map[uint64]*foldTable)
	}
	ch.folds[key] = t
	return t
}

// clockCursor walks a kernel's effective SM clock. Every reader of the
// clock applies its one rule here: until wakeEnd, the wake window after
// idle runs at the idle clock, unclamped; afterwards the timeline's clock
// runs, capped by the throttle clamp. The clamp is read once, when the
// cursor is made: throttles latch only between kernels, after a kernel's
// busy window has been walked.
type clockCursor struct {
	cur      cursor
	wakeEnd  int64
	idleMHz  float64
	clampMHz float64 // 0 = unclamped
}

// clockAt returns the effective clock positioned at host time t, whose
// wake window ends at wakeEnd (0: none).
func (d *Device) clockAt(t, wakeEnd int64) clockCursor {
	return clockCursor{cur: d.tl.cursor(t), wakeEnd: wakeEnd, idleMHz: d.cfg.MinFreqMHz(), clampMHz: d.clampMHz}
}

// at returns the effective clock at t and the host time its
// constant-clock segment ends (math.MaxInt64 for the last). t must be
// non-decreasing across calls.
func (c *clockCursor) at(t int64) (freqMHz float64, endNs int64) {
	f, end := c.cur.freqAt(t)
	if t < c.wakeEnd {
		return c.idleMHz, min(end, c.wakeEnd)
	}
	if c.clampMHz > 0 && f > c.clampMHz {
		f = c.clampMHz
	}
	return f, end
}

// integrate returns the host-time nanoseconds needed to execute the given
// cycle count starting at host time t, walking the effective clock; clk
// amortises the segment lookups across the caller's monotone time walk.
func integrate(t int64, cycles, speed float64, clk *clockCursor) int64 {
	var elapsed float64
	remaining := cycles
	for remaining > 0 {
		f, segEnd := clk.at(t)
		// rate in cycles per nanosecond at this effective clock.
		rate := f * speed / 1000
		span := float64(segEnd - t)
		if segEnd == math.MaxInt64 || remaining <= span*rate {
			need := remaining / rate
			elapsed += need
			remaining = 0
			break
		}
		elapsed += span
		remaining -= span * rate
		t = segEnd
	}
	return roundNs(elapsed)
}

// chunkNs draws the host time n iterations of nominal duration mu ns
// and relative jitter sigma take together.
func chunkNs(r *clock.Rand, n int, mu, sigma float64) int64 {
	return roundNs(mu * (float64(n) + sigma*math.Sqrt(float64(n))*r.Normal(0, 1)))
}

// chunkIters returns how many of the next n undelivered iterations, each
// of nominal duration mu ns, elapse as one chunk starting at t: the most
// whose nominal end lies at least kσ√n·mu + mu before segEnd, k being
// trustSigmas, so even a kσ draw leaves the next iteration at least mu
// inside the segment. Solving mu·n + kσ√n·mu + mu <= segEnd − t for √n
// gives the bound; 0 means not even one iteration fits.
func chunkIters(n int, t, segEnd int64, mu, sigma float64) int {
	if segEnd == math.MaxInt64 {
		return n
	}
	h := trustSigmas * sigma / 2
	x := math.Sqrt(h*h+float64(segEnd-t)/mu-1) - h
	if !(x >= 1) {
		return 0 // also when x is NaN
	}
	return min(n, int(x*x))
}

// roundNs rounds an iteration's elapsed host time to whole nanoseconds,
// never below one.
func roundNs(elapsed float64) int64 {
	if elapsed < 1 {
		elapsed = 1
	}
	return int64(elapsed + 0.5)
}

func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
