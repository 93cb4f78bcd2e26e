package exec

import (
	"sync"

	"charonsim/internal/cache"
	"charonsim/internal/cpu"
	"charonsim/internal/gc"
)

// Host replay walks each core's private L1/L2 ahead of the timing pass.
// The walk is exact, not approximate: the round-robin partition fixes
// each thread's op stream before any timing is known, every host GC event
// starts with flushed caches, and L1/L2 belong to one core, so a core's
// private-level outcomes depend on nothing but its own stream. One
// producer goroutine per thread expands that thread's invocations and
// walks their lines through its core's L1/L2 into chunks; the replay
// scheduler consumes the chunks in order and does the L3 and memory
// timing. The producers touch only L1/L2 and the consumer only the L3 and
// memory, so the results are those of the inline walk.

const (
	// chunkOps, chunkLines and chunkSpans bound one chunk (a chunk is cut
	// after the batch that reaches a bound), so a large invocation streams
	// through a few pooled buffers instead of growing one.
	chunkOps   = 512
	chunkLines = 512
	chunkSpans = 512
	// feedDepth is how many finished chunks a producer may queue ahead of
	// its consumer: two let it fill the next chunk while the consumer
	// drains one and another waits, so the consumer rarely blocks, and
	// each thread holds at most four chunks.
	feedDepth = 2
)

// walkChunk is a run of one thread's expanded ops with the private-level
// outcomes of their lines, split into spans of invocations.
type walkChunk struct {
	ops   []cpu.Op
	priv  []cache.Private
	spans []walkSpan
}

// walkSpan is the part of one invocation a chunk holds: its next ops and
// their lines' outcomes. end marks the invocation's last span; an
// invocation that expands to no ops is one empty span with end set.
type walkSpan struct {
	ops, lines int32
	end        bool
}

func (c *walkChunk) full() bool {
	return len(c.ops) >= chunkOps || len(c.priv) >= chunkLines || len(c.spans) >= chunkSpans
}

// chunkPool is shared by every platform in the process, so concurrent
// replays draw on one set of buffers rather than each keeping its own.
var chunkPool = sync.Pool{New: func() any {
	return &walkChunk{
		ops:   make([]cpu.Op, 0, chunkOps+opBatch),
		priv:  make([]cache.Private, 0, chunkLines+2*opBatch),
		spans: make([]walkSpan, 0, chunkSpans),
	}
}}

func getChunk() *walkChunk { return chunkPool.Get().(*walkChunk) }

func putChunk(c *walkChunk) {
	c.ops, c.priv, c.spans = c.ops[:0], c.priv[:0], c.spans[:0]
	chunkPool.Put(c)
}

// walkFeed carries one thread's chunks from its producer to the replay
// scheduler, and the consumer's place in the current chunk.
type walkFeed struct {
	ch       chan *walkChunk
	cur      *walkChunk
	span     int // next span of cur
	op, line int // first op and line of that span
}

// next returns the thread's next span: its ops, their lines' outcomes,
// and whether it ends an invocation. It blocks until the producer has
// queued the chunk holding it.
func (f *walkFeed) next() ([]cpu.Op, []cache.Private, bool) {
	if f.cur == nil || f.span == len(f.cur.spans) {
		if f.cur != nil {
			putChunk(f.cur)
		}
		f.cur, f.span, f.op, f.line = <-f.ch, 0, 0, 0
	}
	sp := f.cur.spans[f.span]
	ops := f.cur.ops[f.op : f.op+int(sp.ops)]
	priv := f.cur.priv[f.line : f.line+int(sp.lines)]
	f.span++
	f.op += int(sp.ops)
	f.line += int(sp.lines)
	return ops, priv, sp.end
}

// release returns the feed's chunks to the pool. The producer must have
// stopped.
func (f *walkFeed) release() {
	if f.cur != nil {
		putChunk(f.cur)
		f.cur = nil
	}
	for len(f.ch) > 0 {
		putChunk(<-f.ch)
	}
}

// produce expands thread t's invocations of ev (t, t+n, t+2n, ...) and
// walks their lines through the L1/L2 of hier, the thread's core's
// hierarchy, into chunks on ch. It returns once every invocation is
// queued, or early when quit closes.
func produce(hier *cache.Hierarchy, x *expander, ev *gc.Event, major bool, t, n int,
	ch chan<- *walkChunk, quit <-chan struct{},
) {
	c := getChunk()
	for i := t; i < len(ev.Invocations); i += n {
		x.start(&ev.Invocations[i], ev, major)
		var sp walkSpan
		for last := false; !last; {
			var b []cpu.Op
			b, last = x.next()
			lines := len(c.priv)
			c.ops = append(c.ops, b...)
			c.priv = cpu.WalkPrivate(hier, b, c.priv)
			sp.ops += int32(len(b))
			sp.lines += int32(len(c.priv) - lines)
			// Cut inside an invocation only on an opBatch boundary: each
			// batch is one scheduling step, as on the inline path.
			if !last && c.full() {
				c.spans = append(c.spans, sp)
				if !send(ch, quit, c) {
					return
				}
				c, sp = getChunk(), walkSpan{}
			}
		}
		sp.end = true
		c.spans = append(c.spans, sp)
		if c.full() {
			if !send(ch, quit, c) {
				return
			}
			c = getChunk()
		}
	}
	if len(c.spans) == 0 {
		putChunk(c)
		return
	}
	send(ch, quit, c)
}

// send queues c on ch, or returns it to the pool and reports false when
// quit closes first.
func send(ch chan<- *walkChunk, quit <-chan struct{}, c *walkChunk) bool {
	select {
	case ch <- c:
		return true
	case <-quit:
		putChunk(c)
		return false
	}
}
