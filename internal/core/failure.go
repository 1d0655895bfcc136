package core

import (
	"repro/internal/sim"
	"repro/internal/wire"
)

// heartbeat runs the session-management liveness protocol (paper
// Appendix B: a management plane detects remote node failure with
// timeouts). Enabled by Config.HeartbeatInterval.
func (r *Rpc) heartbeat() {
	if r.cfg.HeartbeatInterval == 0 {
		return
	}
	now := r.now()
	if now-r.lastHB < r.cfg.HeartbeatInterval {
		return
	}
	r.lastHB = now
	pinged := map[uint16]bool{}
	for _, s := range r.sessions {
		if s.failed || pinged[s.remote.Node] {
			continue
		}
		pinged[s.remote.Node] = true
		if _, ok := r.lastHeard[s.remote.Node]; !ok {
			r.lastHeard[s.remote.Node] = now // grace period for new peers
		}
		r.charge(r.cost.PktTx)
		r.sendCtrl(s.remote, wire.Header{PktType: wire.PktPing}, 0)
	}
	for node := range pinged {
		if now-r.lastHeard[node] > 5*r.cfg.HeartbeatInterval {
			r.FailPeer(node)
		}
	}
}

// FailPeer declares a remote node failed and tears down every session
// to it, following Appendix B: flush the TX DMA queue, drain the rate
// limiter, then invoke continuations for pending requests with an
// error code.
func (r *Rpc) FailPeer(node uint16) {
	r.apiEnter()
	defer r.apiExit()
	r.Stats.PeerFailures++
	// Flush the TX DMA queue once for the failure event (Appendix B's
	// cost): what the batch holds leaves before the teardown.
	r.charge(r.cost.DMAFlush)
	r.Stats.DMAFlushes++
	r.flushTX()
	r.drainWheelFor(func(e wheelEntry) bool { return e.sess.remote.Node == node })

	for _, s := range r.sessions {
		if s.failed || s.remote.Node != node {
			continue
		}
		r.teardownSession(s, ErrPeerFailure)
	}
	// Reset liveness state: lastHeard would otherwise grow without
	// bound under peer churn, and a stale entry would instantly re-fail
	// a recovered peer on its next heartbeat round. Deleting it makes
	// failure non-terminal — a later CreateSession to the node starts
	// from the new-peer grace period (Appendix B).
	delete(r.lastHeard, node)
	for key, s := range r.srvSessions {
		if key.addr.Node != node {
			continue
		}
		for i := range s.srvSlots {
			r.resetSrvSlot(&s.srvSlots[i])
		}
		delete(r.srvSessions, key)
	}
	// Client-teardown continuations may have queued frames (a
	// nested-RPC handler's response, say): flush them, so none outlive
	// the API call in real transport mode, where apiExit does not flush.
	r.flushTX()
}

// DestroySession closes a client session; outstanding and queued
// requests complete with ErrSessionClosed.
func (r *Rpc) DestroySession(s *Session) {
	if !s.isClient {
		panic("erpc: DestroySession on a server-mode session")
	}
	if s.failed {
		return
	}
	r.apiEnter()
	defer r.apiExit()
	r.charge(r.cost.DMAFlush)
	r.Stats.DMAFlushes++
	r.flushTX()
	r.drainWheelFor(func(e wheelEntry) bool { return e.sess == s })
	r.teardownSession(s, ErrSessionClosed)
	// Continuations may queue new frames; flush so none outlive the API
	// call in real transport mode, where apiExit does not flush.
	r.flushTX()
}

// teardownSession fails every outstanding and queued request on s.
// The session is put into its final, fully consistent state — failed,
// credits restored to the configured limit, backlog detached — BEFORE
// any continuation runs: continuations re-enter the Rpc (nested-RPC
// handlers enqueue on other sessions, applications retry), and they
// must never observe credits mid-reclaim or a backlog that is about to
// be failed. Callers have already drained the rate-limiter wheel
// (drainWheelFor) and flushed the TX batch, so no in-wheel or
// in-flight packet still holds a share of the credit pool.
func (r *Rpc) teardownSession(s *Session, err error) {
	s.failed = true
	if s.isClient {
		r.deadClient++ // release the session's |RQ|/C budget share
	}
	backlog := s.backlog
	s.backlog = nil
	s.credits = DefaultCredits
	conts := make([]func(error), 0, len(s.slots))
	for i := range s.slots {
		ss := &s.slots[i]
		if !ss.busy {
			continue
		}
		conts = append(conts, ss.cont)
		ss.reset()
	}
	for _, cont := range conts {
		r.complete(cont, err)
	}
	for _, p := range backlog {
		r.complete(p.cont, err)
	}
}

// drainWheelFor removes matching rate-limiter entries; non-matching
// entries are reinserted at their original deadlines (Appendix B: the
// rate limiter holds nothing of a failed session).
func (r *Rpc) drainWheelFor(match func(wheelEntry) bool) {
	if r.wheel.Len() == 0 {
		return
	}
	type saved struct {
		at sim.Time
		e  wheelEntry
	}
	var keep []saved
	r.wheel.Drain(func(at sim.Time, e wheelEntry) {
		if match(e) {
			e.sess.cc.inWheel--
			return
		}
		keep = append(keep, saved{at, e})
	})
	for _, k := range keep {
		r.wheel.Insert(k.at, k.e)
	}
}
