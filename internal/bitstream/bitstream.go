// Package bitstream models partial bitstream generation, storage, and
// loading for the Nimblock overlay.
//
// The Nimblock compilation flow generates, for every task of an
// application, one partial bitstream per slot (n slots -> n bitstreams per
// task) so any task can be configured into any slot. Bitstreams carry a
// header naming the application, task and target slot. On the ZCU106
// they live on the SD card and are loaded into DDR by the ARM core
// before being streamed through the configuration access port.
//
// Slots are uniform, so every partial bitstream has the same size as the
// slot region it targets (plus a small header), which is why partial
// reconfiguration takes a near-constant ~80 ms on the evaluation board.
package bitstream

import (
	"fmt"

	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// SlotImageBytes is the size of one slot's partial bitstream. With the
// default CAP bandwidth this yields the paper's ~80 ms reconfiguration.
const SlotImageBytes = 7_500_000

// HeaderBytes is the metadata prefix on each stored bitstream.
const HeaderBytes = 4096

// Header is the metadata the hypervisor parses when an application's
// bitstreams arrive (Section 2.2 of the paper): the image's identity and
// the slot it targets, which the board checks before configuring it.
type Header struct {
	App  string
	Task int
	Slot int
}

// Image is one stored partial bitstream.
type Image struct {
	Header Header
	Bytes  int
}

// ID identifies an image within a store.
func (im *Image) ID() string {
	return fmt.Sprintf("%s/t%d/s%d", im.Header.App, im.Header.Task, im.Header.Slot)
}

// imgKey addresses one image within a store. A struct key avoids the
// per-lookup string formatting a path-style key would cost: Lookup sits
// on the reconfiguration hot path.
type imgKey struct {
	app  string
	task int
	slot int
}

// Store models the hypervisor's bitstream filesystem (the SD card).
type Store struct {
	images map[imgKey]*Image
	bytes  int64
}

// NewStore returns an empty bitstream store.
func NewStore() *Store {
	return &Store{images: map[imgKey]*Image{}}
}

// RelocatableSlot marks an image as slot-agnostic: with bitstream
// relocation, one image per task serves every slot.
const RelocatableSlot = -1

// Register runs the partial-reconfiguration flow for an application:
// for each task it generates one bitstream per slot.
func (s *Store) Register(g *taskgraph.Graph, slots int) error {
	if slots < 1 {
		return fmt.Errorf("bitstream: register %s with %d slots", g.Name(), slots)
	}
	s.register(g, slots, false)
	return nil
}

// RegisterRelocatable runs the flow with bitstream relocation (Corbetta
// et al.; BITMAN; AutoReloc — cited but out of scope in the paper):
// uniform slots let one partial bitstream per task be patched to any
// slot at load time, dividing SD-card storage by the slot count.
func (s *Store) RegisterRelocatable(g *taskgraph.Graph) {
	s.register(g, 1, true)
}

func (s *Store) register(g *taskgraph.Graph, slots int, relocatable bool) {
	for task := 0; task < g.NumTasks(); task++ {
		for slot := 0; slot < slots; slot++ {
			imgSlot := slot
			if relocatable {
				imgSlot = RelocatableSlot
			}
			key := imgKey{app: g.Name(), task: task, slot: imgSlot}
			if _, dup := s.images[key]; dup {
				// Re-registration writes the same SD-card path with the
				// same image: nothing changes.
				continue
			}
			im := &Image{Header: Header{App: key.app, Task: task, Slot: imgSlot}, Bytes: SlotImageBytes + HeaderBytes}
			s.bytes += int64(im.Bytes)
			s.images[key] = im
		}
	}
}

// Lookup fetches the bitstream for (app, task, slot), falling back to
// the task's relocatable image if one was registered.
func (s *Store) Lookup(app string, task, slot int) (*Image, error) {
	if im, ok := s.images[imgKey{app: app, task: task, slot: slot}]; ok {
		return im, nil
	}
	if im, ok := s.images[imgKey{app: app, task: task, slot: RelocatableSlot}]; ok {
		return im, nil
	}
	return nil, fmt.Errorf("bitstream: no image %s/t%d/s%d", app, task, slot)
}

// Count reports the number of stored images.
func (s *Store) Count() int { return len(s.images) }

// Bytes reports total stored bytes (SD card occupancy).
func (s *Store) Bytes() int64 { return s.bytes }

// LoadTime models reading an image from the SD card into DDR at the given
// bandwidth in bytes per second.
func (im *Image) LoadTime(sdBytesPerSec float64) sim.Duration {
	if sdBytesPerSec <= 0 {
		return 0
	}
	return sim.Seconds(float64(im.Bytes) / sdBytesPerSec)
}
