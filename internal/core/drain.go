package core

// Graceful drain (the zero-downtime-restart half of Appendix B's
// management plane): Drain stops admitting work, Drained reports when
// everything already admitted has finished. The dispatch loop keeps
// running between the two — in-flight RPCs complete, the TX batch
// flushes, worker handlers return — so an operator can stop a serving
// process without failing a single admitted request.

// Drain puts the endpoint into draining mode: CreateSession and
// EnqueueRequest fail with ErrDraining, and the server half rejects
// newly arriving requests with PktReject (clients retry elsewhere or
// back off). Work admitted before the call — busy client slots, queued
// backlog, server requests being received or executed — runs to
// completion. Must be called from the dispatch context (use Post from
// other goroutines); irreversible for the life of the endpoint.
func (r *Rpc) Drain() {
	r.apiEnter()
	defer r.apiExit()
	r.draining = true
}

// Draining reports whether Drain has been called.
func (r *Rpc) Draining() bool { return r.draining }

// AllocBalance reports the endpoint allocator's cumulative Alloc and
// Free counts. Leak auditing: after a drain completes, every pooled
// msgbuf the admitted work allocated must have been freed. Dispatch
// context only (or after the endpoint's loop has stopped).
func (r *Rpc) AllocBalance() (allocs, frees uint64) {
	return r.alloc.Allocs, r.alloc.FreeCount
}

// Drained reports whether the endpoint is draining and has no admitted
// work left: no busy client slot or backlogged request, no server
// request being received or executed, no packet waiting in the rate
// limiter or the TX batch, and no closure waiting in the Post queue
// (where a worker handler's response sits until a pass runs it).
// Dispatch context only.
func (r *Rpc) Drained() bool {
	if !r.draining {
		return false
	}
	for _, s := range r.sessions {
		if s.failed {
			continue
		}
		if len(s.backlog) > 0 {
			return false
		}
		for i := range s.slots {
			if s.slots[i].busy {
				return false
			}
		}
	}
	if r.srvInFlight != 0 || r.wheel.Len() != 0 || len(r.txBatch) != 0 {
		return false
	}
	r.posted.Lock()
	defer r.posted.Unlock()
	return len(r.posted.fns) == 0
}
