package hv

import "math/bits"

// slotSet is a set of slot indices, one bit per slot: the first 64
// slots in a word of its own, so the common board keeps the set inline,
// and any further slots in words made on first use.
type slotSet struct {
	lo uint64
	hi []uint64 // slots 64 and up, 64 per word
}

func (s *slotSet) add(slot int) {
	if slot < 64 {
		s.lo |= 1 << slot
		return
	}
	w := slot/64 - 1
	if w >= len(s.hi) {
		s.hi = append(s.hi, make([]uint64, w+1-len(s.hi))...)
	}
	s.hi[w] |= 1 << (slot % 64)
}

func (s *slotSet) remove(slot int) {
	if slot < 64 {
		s.lo &^= 1 << slot
	} else if w := slot/64 - 1; w < len(s.hi) {
		s.hi[w] &^= 1 << (slot % 64)
	}
}

// next is the lowest slot in the set above after, or -1. Stepping with
// it from -1 visits the set in the order a scan of every slot would,
// even when a visit removes a slot.
func (s *slotSet) next(after int) int {
	from := after + 1
	for w := from / 64; w <= len(s.hi); w++ {
		word := s.lo
		if w > 0 {
			word = s.hi[w-1]
		}
		if w == from/64 {
			word &^= 1<<(from%64) - 1
		}
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}
