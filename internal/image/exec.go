package image

import (
	"fmt"

	"dynprof/internal/isa"
)

// maxSteps bounds an interpreter walk; exceeding it means a patching bug
// created a jump cycle, which should fail loudly.
const maxSteps = 100_000

// progStep is one snippet call inside a compiled region program.
type progStep struct {
	fn Snippet
	// resume is the address interpretation continues from if the snippet
	// mutates the image (dynamic patching mid-walk).
	resume Addr
	// prefix is the word cycles accumulated through the SnippetCall word,
	// i.e. the partial sum owed if the replay falls back at this step.
	prefix int64
}

// regionProg is the compiled form of one probe-region walk: the snippets
// that fire, in order, plus the total word cycles the region charges.
// Replaying it is observably identical to interpreting the words — same
// snippet order, same returned cycle total — as long as the image has not
// been patched since compilation, which the generation stamp guards.
type regionProg struct {
	gen   uint64
	steps []progStep
	total int64
}

// ExecEntry interprets a function's entry region — the entry probe slot
// (possibly displaced into a trampoline chain) and any statically inserted
// prologue snippet calls — up to the Body marker. It returns the cycles
// consumed by the instruction words; snippets charge their own additional
// cost through ctx.
func (img *Image) ExecEntry(sym *Symbol, ctx ExecCtx) int64 {
	return img.exec(sym.Entry, ctx, sym.Name)
}

// ExecExit interprets a function's exit region — the exit probe slot and
// statically inserted epilogue snippet calls — through the Ret.
func (img *Image) ExecExit(sym *Symbol, exitIndex int, ctx ExecCtx) int64 {
	if exitIndex < 0 || exitIndex >= len(sym.Exits) {
		panic(fmt.Sprintf("image %s: %s has no exit %d", img.name, sym.Name, exitIndex))
	}
	return img.exec(sym.Exits[exitIndex], ctx, sym.Name)
}

// exec runs the region starting at `at`, replaying its cached program when
// one is current and compiling one otherwise. A snippet that patches the
// image mid-replay (a dynamic-control safe point can suspend the thread
// while probes are installed) invalidates the program's generation; the
// remainder of the region is then interpreted from the snippet's resume
// address, exactly as the plain interpreter would continue.
func (img *Image) exec(at Addr, ctx ExecCtx, fname string) int64 {
	p, ok := img.progs[at]
	if !ok || p.gen != img.gen {
		return img.walk(at, ctx, fname, &regionProg{gen: img.gen})
	}
	for i := range p.steps {
		st := &p.steps[i]
		st.fn(ctx)
		if img.gen != p.gen {
			return st.prefix + img.walk(st.resume, ctx, fname, nil)
		}
	}
	return p.total
}

// walk interprets words starting at `at` until a Body or Ret terminator and
// returns their cycles. With a non-nil rec it also records the region's
// program and caches it under `at` on completion; if a snippet mutates the
// image mid-walk the recording is abandoned and the rest of the region is
// interpreted without one.
func (img *Image) walk(at Addr, ctx ExecCtx, fname string, rec *regionProg) int64 {
	start := at
	var cycles int64
	for step := 0; ; step++ {
		if step >= maxSteps {
			panic(fmt.Sprintf("image %s: runaway execution in %s at %d (jump cycle from bad patch?)", img.name, fname, at))
		}
		w := img.Word(at)
		cycles += w.Cost()
		switch w.Op {
		case isa.Body, isa.Ret:
			if rec != nil {
				rec.total = cycles
				img.progs[start] = rec
			}
			return cycles
		case isa.Jmp:
			at = Addr(w.Arg)
		case isa.SnippetCall:
			fn, ok := img.snippets[w.Arg]
			if !ok {
				panic(fmt.Sprintf("image %s: unbound snippet %d in %s", img.name, w.Arg, fname))
			}
			if rec != nil {
				rec.steps = append(rec.steps, progStep{fn: fn, resume: at + 1, prefix: cycles})
			}
			fn(ctx)
			if rec != nil && img.gen != rec.gen {
				return cycles + img.walk(at+1, ctx, fname, nil)
			}
			at++
		case isa.Illegal:
			panic(fmt.Sprintf("image %s: illegal instruction at %d in %s (freed trampoline executed?)", img.name, at, fname))
		default:
			at++
		}
	}
}
