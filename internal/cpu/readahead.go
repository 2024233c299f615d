package cpu

import "repro/internal/trace"

// readAheadDepth is how many chunk buffers a ReadAhead cycles: one held
// by the consumer, the rest filled ahead of it.
const readAheadDepth = 3

// ReadAhead pulls exactly n instructions from a Source on its own
// goroutine, in chunks, a few chunks ahead of the consumer, so producing
// the stream overlaps consuming it. The chunk buffers are reused: a chunk
// returned by Next is valid until the following Next or Close. The
// Source must not be used by anyone else until Close returns.
type ReadAhead struct {
	full   chan []trace.Inst // filled chunks, in stream order; closed when the producer exits
	free   chan []trace.Inst // chunks the consumer has finished with
	stop   chan struct{}     // closed by Close to abandon the rest of the stream
	done   chan struct{}     // closed when the producer goroutine has returned
	cur    []trace.Inst      // the chunk the consumer holds
	panic  any               // the producer's recovered panic, set before full closes
	closed bool
}

// NewReadAhead starts pulling n instructions (n > 0) from src in chunks of
// chunk instructions; the last chunk holds the remainder.
func NewReadAhead(src Source, n, chunk int) *ReadAhead {
	chunk = min(chunk, n)
	r := &ReadAhead{
		full: make(chan []trace.Inst, readAheadDepth),
		free: make(chan []trace.Inst, readAheadDepth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for range readAheadDepth {
		r.free <- make([]trace.Inst, chunk)
	}
	go r.produce(src, n)
	return r
}

func (r *ReadAhead) produce(src Source, n int) {
	defer close(r.done)
	defer func() {
		r.panic = recover()
		close(r.full)
	}()
	for n > 0 {
		var buf []trace.Inst
		select {
		case buf = <-r.free:
		case <-r.stop:
			return
		}
		buf = buf[:min(cap(buf), n)]
		for i := range buf {
			buf[i] = src.Next()
		}
		n -= len(buf)
		r.full <- buf // never blocks: full holds every buffer there is
	}
}

// Next hands the previous chunk back for refilling and returns the next
// one. A panic in the Source's Next is re-raised here, on the caller's
// goroutine. Asking for more than n instructions in total panics.
func (r *ReadAhead) Next() []trace.Inst {
	if r.cur != nil {
		r.free <- r.cur
		r.cur = nil
	}
	buf, ok := <-r.full
	if !ok {
		if p := r.panic; p != nil {
			r.panic = nil
			panic(p)
		}
		panic("cpu: read past the end of a ReadAhead")
	}
	r.cur = buf
	return buf
}

// Close stops the producer and waits for it to return, so no goroutine
// outlives the caller. A producer that is inside the Source's Next
// finishes its chunk first. Instructions pulled ahead but never taken are
// dropped, as is a panic raised while pulling them. Close is idempotent.
func (r *ReadAhead) Close() {
	if r.closed {
		return
	}
	r.closed = true
	close(r.stop)
	<-r.done
}
