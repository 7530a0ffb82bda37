// Package lanes holds the per-lane scratch of the tables' batched probe
// walks. The walks process keys in chunks of Width lanes; a lane's
// resume state between rounds lives here rather than on the table, so
// the walks are reentrant: each caller brings its own Scratch, and any
// number of readers may walk the same table at once.
//
// It is a leaf package so that both table (which owns the walks) and
// shard (which hands each wait-free reader its own Scratch) can name the
// type; shard cannot import table.
package lanes

import "repro/hashfn"

// Width is the chunk size of the batched walks: 64 lanes keep one
// chunk's hash codes, cursors and live-lane list inside L1 while offering
// the memory system dozens of independent probe streams.
const Width = hashfn.DefaultBatchWidth

// Scratch is one chunk's worth of per-lane walk state. Its contents are
// meaningless between calls; a zero Scratch is ready to use.
type Scratch struct {
	Hash   [Width]uint64 // hash codes from the bulk-hash pass
	Cursor [Width]uint64 // per-lane cursor (scheme-specific meaning)
	Aux    [Width]uint64 // per-lane auxiliary counter (step, home cursor)
	Lane   [Width]int32  // live-lane list for the round-robin walk
}
