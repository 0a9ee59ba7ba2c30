package ecm

import "incore/internal/isa"

// TrafficForBlock derives per-cache-line traffic from an assembly block by
// counting its distinct memory streams: memory operands sharing base and
// index registers belong to one stream (stencil neighbor offsets hit the
// cache and cost no extra traffic). Each load stream moves one 64-byte
// line per line of work, each store stream one line before the model's
// write-allocate factor. In-place update streams (load+store on the same
// base) count once for each direction.
func TrafficForBlock(b *isa.Block) Traffic {
	type streamKey struct {
		base, index isa.RegKey
	}
	loadStreams := map[streamKey]bool{}
	storeStreams := map[streamKey]bool{}
	keyOf := func(m *isa.MemOp) streamKey {
		var k streamKey
		if m.Base.Valid() {
			k.base = m.Base.Key()
		}
		if m.Index.Valid() {
			k.index = m.Index.Key()
		}
		return k
	}
	for i := range b.Instrs {
		eff := isa.InstrEffects(&b.Instrs[i], b.Dialect)
		for _, m := range eff.LoadOps {
			loadStreams[keyOf(m)] = true
		}
		for _, m := range eff.StoreOps {
			storeStreams[keyOf(m)] = true
		}
	}
	return Traffic{
		LoadBytes:  64 * float64(len(loadStreams)),
		StoreBytes: 64 * float64(len(storeStreams)),
	}
}

// ElemsPerIter estimates the double-precision elements one loop iteration
// processes from the bits its stores move (falling back to loads): a
// scalar-class access moves 64 bits, a vector access its widest register.
// A block without memory accesses has no element count, and gets 0.
func ElemsPerIter(b *isa.Block) int {
	loadBits, storeBits := 0, 0
	for i := range b.Instrs {
		in := &b.Instrs[i]
		w := 64
		if in.Ext != isa.ExtScalar {
			w = max(w, in.VecWidth())
		}
		eff := isa.InstrEffects(in, b.Dialect)
		storeBits += len(eff.StoreOps) * w
		loadBits += len(eff.LoadOps) * w
	}
	if storeBits > 0 {
		return storeBits / 64
	}
	return loadBits / 64
}
