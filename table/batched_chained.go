package table

import (
	"repro/hashfn"
	"repro/internal/lanes"
	"repro/internal/slab"
)

// Batched pipeline for the chained schemes. Chained probing is a linked
// walk — the dependent-load chain the paper charges chained hashing with —
// so the round-robin rounds interleave *different* buckets' chain steps:
// each round dereferences one Next per live lane, and those loads are
// independent of each other.
//
// The walks end on a torn table too (see kern.ReadBatch for why they
// must): the directory only moves on growth, which shard tables never
// run, and the round-robin phase is capped at one round per live entry
// plus one. Each round advances every live lane one chain entry, and a
// consistent chain holds only live entries, so a lane still walking past
// the cap followed Next pointers a writer was relinking (an entry freed
// and reused mid-walk can even close a cycle in what the reader sees);
// it reports a miss, which the caller's validation discards.

// GetBatch implements Batcher: ReadBatch over the table's own scratch.
func (t *Chained8) GetBatch(keys []uint64, vals []uint64, ok []bool) int {
	return t.ReadBatch(t.buf(), keys, vals, ok)
}

// ReadBatch implements Table.
func (t *Chained8) ReadBatch(sc *lanes.Scratch, keys, vals []uint64, ok []bool) int {
	return readChunks(t, sc, keys, vals, ok)
}

func (t *Chained8) getChunk(bt *lanes.Scratch, keys, vals []uint64, ok []bool) int {
	hashfn.HashBatch(t.fn, keys, bt.Hash[:])
	shift := t.shift
	hits := 0
	var cur [BatchWidth]*slab.Entry
	live := bt.Lane[:0]
	for l := range keys {
		e := t.dir[bt.Hash[l]>>shift]
		if e == nil {
			vals[l], ok[l] = 0, false
			continue
		}
		cur[l] = e
		live = append(live, int32(l))
	}
	for rounds := t.size + 1; len(live) > 0; rounds-- {
		if rounds == 0 {
			abandon(live, vals, ok)
			break
		}
		w := 0
		for _, l := range live {
			e := cur[l]
			if e.Key == keys[l] {
				vals[l], ok[l] = e.Val, true
				hits++
				continue
			}
			if e.Next == nil {
				vals[l], ok[l] = 0, false
				continue
			}
			cur[l] = e.Next
			live[w] = l
			w++
		}
		live = live[:w]
	}
	return hits
}

// PutBatch implements Batcher; see LinearProbing.PutBatch. Chained8 has no
// sentinel keys — every key lives in a chain.
func (t *Chained8) PutBatch(keys []uint64, vals []uint64) int {
	checkBatchPut(len(keys), len(vals))
	bt := t.buf()
	inserted := 0
	chunks(len(keys), func(lo, hi int) {
		kc, vc := keys[lo:hi], vals[lo:hi]
		hashfn.HashBatch(t.fn, kc, bt.Hash[:])
		for l, k := range kc {
			if ins, _ := t.putHashed(k, vc[l], bt.Hash[l]); ins {
				inserted++
			}
		}
	})
	return inserted
}

// GetBatch implements Batcher: ReadBatch over the table's own scratch.
func (t *Chained24) GetBatch(keys []uint64, vals []uint64, ok []bool) int {
	return t.ReadBatch(t.buf(), keys, vals, ok)
}

// ReadBatch implements Table. The first-probe pass resolves against the
// widened directory's inline entries — the collision-free case Chained24
// exists for — and only overflow chains enter the round-robin walk.
func (t *Chained24) ReadBatch(sc *lanes.Scratch, keys, vals []uint64, ok []bool) int {
	return readChunks(t, sc, keys, vals, ok)
}

func (t *Chained24) getChunk(bt *lanes.Scratch, keys, vals []uint64, ok []bool) int {
	hashfn.HashBatch(t.fn, keys, bt.Hash[:])
	shift := t.shift
	hits := 0
	var cur [BatchWidth]*slab.Entry
	live := bt.Lane[:0]
	for l := range keys {
		k := keys[l]
		if k == emptyKey {
			vals[l], ok[l] = t.zeroVal, t.hasZero
			if ok[l] {
				hits++
			}
			continue
		}
		b := &t.dir[bt.Hash[l]>>shift]
		if b.key == k {
			vals[l], ok[l] = b.val, true
			hits++
			continue
		}
		if b.next == nil {
			vals[l], ok[l] = 0, false
			continue
		}
		cur[l] = b.next
		live = append(live, int32(l))
	}
	for rounds := t.size + 1; len(live) > 0; rounds-- {
		if rounds == 0 {
			abandon(live, vals, ok)
			break
		}
		w := 0
		for _, l := range live {
			e := cur[l]
			if e.Key == keys[l] {
				vals[l], ok[l] = e.Val, true
				hits++
				continue
			}
			if e.Next == nil {
				vals[l], ok[l] = 0, false
				continue
			}
			cur[l] = e.Next
			live[w] = l
			w++
		}
		live = live[:w]
	}
	return hits
}

// PutBatch implements Batcher; see LinearProbing.PutBatch.
func (t *Chained24) PutBatch(keys []uint64, vals []uint64) int {
	checkBatchPut(len(keys), len(vals))
	bt := t.buf()
	inserted := 0
	chunks(len(keys), func(lo, hi int) {
		kc, vc := keys[lo:hi], vals[lo:hi]
		hashfn.HashBatch(t.fn, kc, bt.Hash[:])
		for l, k := range kc {
			if k == emptyKey {
				if !t.hasZero {
					inserted++
				}
				t.hasZero, t.zeroVal = true, vc[l]
				continue
			}
			if ins, _ := t.putHashed(k, vc[l], bt.Hash[l]); ins {
				inserted++
			}
		}
	})
	return inserted
}
