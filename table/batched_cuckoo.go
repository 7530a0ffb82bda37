package table

import (
	"math/bits"

	"repro/hashfn"
	"repro/internal/lanes"
)

// Batched pipeline for Cuckoo hashing. Cuckoo lookups are the natural fit
// for way-major batching: every key has at most `ways` candidate slots, so
// the pipeline probes subtable 0 for the whole chunk (one bulk hash with
// fns[0], then a burst of independent loads), drops the resolved lanes, and
// moves the survivors to subtable 1, and so on. Each round is one bulk hash
// plus one scan of independent probes — per-call hash overhead is paid
// ways times per *chunk* instead of ways times per key.

// GetBatch implements Batcher: ReadBatch over the table's own scratch.
func (t *Cuckoo) GetBatch(keys []uint64, vals []uint64, ok []bool) int {
	return t.ReadBatch(t.buf(), keys, vals, ok)
}

// ReadBatch implements Table. Its walk is bounded by construction, so it
// ends on a torn table too (see kern.ReadBatch for why it must): at most
// one round per subtable, one probe per lane per round.
func (t *Cuckoo) ReadBatch(sc *lanes.Scratch, keys, vals []uint64, ok []bool) int {
	return readChunks(t, sc, keys, vals, ok)
}

func (t *Cuckoo) getChunk(bt *lanes.Scratch, keys, vals []uint64, ok []bool) int {
	hits := 0
	live := bt.Lane[:0]
	for l := range keys {
		k := keys[l]
		if isSentinelKey(k) {
			vals[l], ok[l] = t.sent.get(k)
			if ok[l] {
				hits++
			}
			continue
		}
		live = append(live, int32(l))
	}
	subCap := t.subCap
	for j := 0; j < t.ways && len(live) > 0; j++ {
		// Gather the unresolved keys and bulk-hash them with subtable j's
		// function.
		for i, l := range live {
			bt.Cursor[i] = keys[l]
		}
		hashfn.HashBatch(t.fns[j], bt.Cursor[:len(live)], bt.Hash[:])
		base := j * int(subCap)
		w := 0
		for i, l := range live {
			hi, _ := bits.Mul64(bt.Hash[i], subCap)
			s := &t.slots[base+int(hi)]
			if s.key == keys[l] {
				vals[l], ok[l] = s.val, true
				hits++
				continue
			}
			live[w] = l
			w++
		}
		live = live[:w]
	}
	// Lanes that survived all ways miss: a Cuckoo key is always in one of
	// its candidate slots.
	for _, l := range live {
		vals[l], ok[l] = 0, false
	}
	return hits
}

// PutBatch implements Batcher as sequential scalar Puts. Cuckoo inserts
// displace resident entries and can redraw the whole function generation
// mid-batch (kick-chain overflow triggers a rehash), so no hash computed
// before an insert survives it; batching the hash pass would be incorrect,
// and the insert cost is dominated by the kick chain anyway (§5.2).
func (t *Cuckoo) PutBatch(keys []uint64, vals []uint64) int {
	checkBatchPut(len(keys), len(vals))
	inserted := 0
	for i, k := range keys {
		if t.Put(k, vals[i]) {
			inserted++
		}
	}
	return inserted
}
