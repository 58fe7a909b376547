package sched

import (
	"slices"

	"nimblock/internal/sim"
)

// CandidatePool is one token policy's candidate pool, kept across its
// scheduling calls. Tokens are closed form, so the candidate flags,
// CandidateSince and the age order can change only when the pending
// list changes or some balance reaches a priority level, the instant
// TokenWake names. Refresh derives them again only then and otherwise
// returns the pool as it stands (DESIGN §13.8). The zero value is an
// empty pool that derives on its first Refresh.
type CandidatePool struct {
	seen  []*App   // the pending list at the last derivation, copied
	cands []*App   // its candidates in age order
	wake  sim.Time // TokenWake right after the last derivation
}

// Refresh brings the pool up to date with the world and returns the
// candidates in age order (as CandidatesInto orders them) and whether it
// derived them again: because w.Apps() is not, element for element, the
// list it last saw, or because the clock has reached the memoized wake.
// The slice is pool-owned and valid until the next Refresh; callers
// must not mutate it.
func (p *CandidatePool) Refresh(w World) (cands []*App, changed bool) {
	apps, now := w.Apps(), w.Now()
	if now < p.wake && slices.Equal(apps, p.seen) {
		return p.cands, false
	}
	if n := len(apps); n > cap(p.seen) {
		// The copy and the candidates grow together, in one allocation.
		half := max(n, 2*cap(p.seen))
		buf := make([]*App, 2*half)
		p.seen, p.cands = buf[:0:half], buf[half:half]
	}
	AccrueTokens(now, apps)
	p.cands = CandidatesInto(p.cands, apps)
	p.seen = append(p.seen[:0], apps...)
	p.wake = TokenWake(now, apps)
	return p.cands, true
}

// NextWake is the wake memoized by the last Refresh: the earliest
// instant at which the pool could change if the pending list does not.
// Every application has accrued tokens by then, so it lies strictly
// after that Refresh's clock.
func (p *CandidatePool) NextWake() sim.Time { return p.wake }
