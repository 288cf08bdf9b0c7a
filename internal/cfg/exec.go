package cfg

import (
	"fmt"
	"math"

	"tifs/internal/isa"
	"tifs/internal/xrand"
)

// ExecConfig configures an Executor: which functions are transaction
// drivers, how the OS interrupts execution, and how many software threads
// the core multiplexes.
type ExecConfig struct {
	// Roots are the transaction driver functions. When a thread's call
	// stack empties, the dispatcher selects the next root by Zipf
	// popularity (rank 0 = Roots[0] most popular).
	Roots []FuncID
	// RootSkew is the Zipf skew over Roots; 0 gives a uniform mix.
	RootSkew float64
	// TrapHandlers are OS entry points (scheduler, interrupt handlers).
	// Traps pick uniformly among them. Empty disables traps.
	TrapHandlers []FuncID
	// TrapMeanInstrs is the mean number of instructions between traps
	// (exponentially distributed). 0 disables traps.
	TrapMeanInstrs int
	// Threads is the number of software threads multiplexed on the core;
	// at least 1.
	Threads int
	// ContextSwitchProb is the probability that a trap return resumes a
	// different thread (a scheduler decision). Ignored with one thread.
	ContextSwitchProb float64
	// Seed names the deterministic random stream for this executor.
	Seed string
}

// ExecStats counts what an Executor has produced.
type ExecStats struct {
	// Events is the number of BlockEvents emitted.
	Events uint64
	// Instrs is the total instructions across emitted events.
	Instrs uint64
	// Traps is the number of OS traps taken.
	Traps uint64
	// ContextSwitches is the number of trap returns that resumed a
	// different thread.
	ContextSwitches uint64
	// Transactions is the number of root dispatches.
	Transactions uint64
}

type frame struct {
	fn     *Function
	resume int // block index to execute after the callee returns
}

type blockRef struct {
	fn  *Function
	idx int
}

func (r blockRef) valid() bool { return r.fn != nil }

func (r blockRef) block() *BasicBlock { return r.fn.Blocks[r.idx] }

type threadState struct {
	stack []frame
	cur   blockRef
}

// Executor walks a Program emitting isa.BlockEvents. It is an infinite
// isa.BatchSource: NextBatch always fills its buffer. One Executor
// models one core.
type Executor struct {
	prog *Program
	cfg  ExecConfig
	rng  *xrand.Rand
	// seed is "exec/" + cfg.Seed, built once so Reset can reseed without
	// allocating (a concatenation longer than 32 bytes escapes to the
	// heap).
	seed string

	rootZipf *xrand.ZipfTable
	threads  []*threadState
	active   int

	inTrap        bool
	trapThread    threadState // kernel-mode execution state
	trapCountdown int64

	stats ExecStats
}

// NewExecutor creates an executor for prog. It panics if the configuration
// is invalid (no roots, or trap settings without handlers).
func NewExecutor(prog *Program, cfg ExecConfig) *Executor {
	if len(cfg.Roots) == 0 {
		panic("cfg: executor needs at least one root function")
	}
	if cfg.TrapMeanInstrs > 0 && len(cfg.TrapHandlers) == 0 {
		panic("cfg: TrapMeanInstrs set without TrapHandlers")
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	seed := "exec/" + cfg.Seed
	x := &Executor{
		prog:     prog,
		cfg:      cfg,
		rng:      xrand.NewFromString(seed),
		seed:     seed,
		rootZipf: xrand.NewZipfTable(len(cfg.Roots), cfg.RootSkew),
		threads:  make([]*threadState, cfg.Threads),
	}
	for i := range x.threads {
		x.threads[i] = &threadState{}
	}
	x.resetTrapCountdown()
	return x
}

// Stats returns a copy of the execution counters.
func (x *Executor) Stats() ExecStats { return x.stats }

// Reset rewinds the executor to its freshly constructed state: the same
// seed, thread states, and trap countdown NewExecutor(prog, cfg) would
// produce, so the event stream replays identically. Call stacks keep
// their capacity, making repeated simulation runs allocation-free once
// the deepest call chain has been seen.
func (x *Executor) Reset() {
	x.rng.SeedFromString(x.seed)
	for _, t := range x.threads {
		t.stack = t.stack[:0]
		t.cur = blockRef{}
	}
	x.active = 0
	x.inTrap = false
	x.trapThread.stack = x.trapThread.stack[:0]
	x.trapThread.cur = blockRef{}
	x.stats = ExecStats{}
	x.resetTrapCountdown()
}

func (x *Executor) resetTrapCountdown() {
	if x.cfg.TrapMeanInstrs <= 0 {
		x.trapCountdown = math.MaxInt64
		return
	}
	u := x.rng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	d := -float64(x.cfg.TrapMeanInstrs) * math.Log(u)
	if d < 1 {
		d = 1
	}
	x.trapCountdown = int64(d)
}

// dispatchRoot picks the next transaction driver for a thread.
func (x *Executor) dispatchRoot() blockRef {
	x.stats.Transactions++
	root := x.cfg.Roots[x.rootZipf.Sample(x.rng)]
	return blockRef{fn: x.prog.Func(root), idx: 0}
}

// NextBatch implements isa.BatchSource: one dynamic dispatch fills a
// whole buffer, with events written in place. The executor is infinite,
// so dst is always filled completely.
func (x *Executor) NextBatch(dst []isa.BlockEvent) int {
	for i := range dst {
		if x.inTrap {
			dst[i] = x.stepTrap()
		} else {
			dst[i] = x.stepThread()
		}
	}
	return len(dst)
}

// stepThread executes one basic block of the active thread.
func (x *Executor) stepThread() isa.BlockEvent {
	t := x.threads[x.active]
	if !t.cur.valid() {
		t.cur = x.dispatchRoot()
	}
	ev, next := x.step(&t.cur, &t.stack, true)

	x.stats.Events++
	x.stats.Instrs += uint64(ev.Instrs)
	x.trapCountdown -= int64(ev.Instrs)

	if x.trapCountdown <= 0 && x.cfg.TrapMeanInstrs > 0 {
		// Asynchronous trap at the block boundary: override the emitted
		// terminator with a trap redirect (the flush discards the natural
		// transfer from the fetch unit's perspective), and stash the
		// natural continuation as the thread's resume point.
		handler := x.cfg.TrapHandlers[x.rng.Intn(len(x.cfg.TrapHandlers))]
		hfn := x.prog.Func(handler)
		ev.Kind = isa.CTTrap
		ev.Taken = true
		ev.Target = hfn.Entry
		t.cur = next
		x.inTrap = true
		x.trapThread.stack = x.trapThread.stack[:0] // keep capacity across traps
		x.trapThread.cur = blockRef{fn: hfn, idx: 0}
		x.stats.Traps++
		x.resetTrapCountdown()
		return ev
	}
	t.cur = next
	return ev
}

// stepTrap executes one basic block of kernel trap code.
func (x *Executor) stepTrap() isa.BlockEvent {
	ev, next := x.step(&x.trapThread.cur, &x.trapThread.stack, false)
	x.stats.Events++
	x.stats.Instrs += uint64(ev.Instrs)

	if !next.valid() {
		// Kernel stack emptied: trap return, possibly to another thread.
		x.inTrap = false
		if x.cfg.Threads > 1 && x.rng.Bool(x.cfg.ContextSwitchProb) {
			prev := x.active
			x.active = x.rng.Intn(len(x.threads))
			if x.active != prev {
				x.stats.ContextSwitches++
			}
		}
		t := x.threads[x.active]
		if !t.cur.valid() {
			t.cur = x.dispatchRoot()
		}
		ev.Kind = isa.CTTrapReturn
		ev.Taken = true
		ev.Target = t.cur.block().PC
		return ev
	}
	x.trapThread.cur = next
	return ev
}

// step executes the block at *cur, resolving its terminator with the
// executor's RNG, and returns the emitted event plus the next block
// reference. For CTReturn with an empty stack: in user mode (dispatch
// true) the dispatcher selects the next transaction root; in kernel mode
// it returns an invalid blockRef to signal trap completion (the caller
// rewrites the event's target).
func (x *Executor) step(cur *blockRef, stack *[]frame, dispatch bool) (isa.BlockEvent, blockRef) {
	fn := cur.fn
	b := cur.block()
	ev := isa.BlockEvent{
		PC:     b.PC,
		Instrs: b.Instrs,
		Kind:   b.Term.Kind,
	}
	if cur.idx == 0 && fn.Serializing {
		ev.Serializing = true
	}

	var next blockRef
	switch b.Term.Kind {
	case isa.CTFallthrough:
		next = blockRef{fn: fn, idx: cur.idx + 1}

	case isa.CTBranch:
		taken := x.rng.Bool(b.Term.TakenProb)
		ev.Taken = taken
		ev.InnerLoop = b.Term.InnerLoop
		ev.Target = fn.Blocks[b.Term.TakenIdx].PC
		if taken {
			next = blockRef{fn: fn, idx: b.Term.TakenIdx}
		} else {
			next = blockRef{fn: fn, idx: cur.idx + 1}
		}

	case isa.CTJump:
		ev.Taken = true
		ev.Target = fn.Blocks[b.Term.TakenIdx].PC
		next = blockRef{fn: fn, idx: b.Term.TakenIdx}

	case isa.CTCall:
		callee := b.Term.Callees[0]
		if b.Term.CalleeZipf != nil {
			callee = b.Term.Callees[b.Term.CalleeZipf.Sample(x.rng)]
		}
		cfn := x.prog.Func(callee)
		ev.Taken = true
		ev.Target = cfn.Entry
		*stack = append(*stack, frame{fn: fn, resume: cur.idx + 1})
		next = blockRef{fn: cfn, idx: 0}

	case isa.CTReturn:
		ev.Taken = true
		if n := len(*stack); n > 0 {
			fr := (*stack)[n-1]
			*stack = (*stack)[:n-1]
			ev.Target = fr.fn.Blocks[fr.resume].PC
			next = blockRef{fn: fr.fn, idx: fr.resume}
		} else if dispatch {
			next = x.dispatchRoot()
			ev.Target = next.block().PC
		} else {
			// Kernel return with empty stack: caller handles trap return.
			next = blockRef{}
		}

	default:
		panic(fmt.Sprintf("cfg: unexpected terminator kind %v", b.Term.Kind))
	}
	return ev, next
}
