package uarch

// Deriver derives what-if variants of one base model — the design-space
// sweep's variants — without re-encoding, revalidating, or reindexing the
// instruction table each variant shares with the base. It encodes the
// base's table once, validates its entries once, and builds one entry
// index and one entry port table; every variant whose table is provably
// the base's reuses them, and hashes its own small header followed by
// the shared encoding. A variant's fingerprint and port signature are
// therefore exactly what Reindex computes.
//
// Everything is taken from the base's entries as they are when the
// Deriver is made, not from the base's index, so a base mutated since it
// was last indexed derives the same variants Reindex would. A Deriver
// holds the table encodings until it is dropped; it is not safe for
// concurrent use.
type Deriver struct {
	base    *Model
	entries []Entry
	ports   []string
	// shared reports whether the base's entries are valid on its ports;
	// when they are not, every variant takes the full Reindex.
	shared            bool
	indented, compact []byte
	index             map[entryKey]*Entry
	portIdx           map[PortMask][]int
}

// NewDeriver prepares the derivation of variants of base.
func NewDeriver(base *Model) *Deriver {
	d := &Deriver{base: base, entries: base.Entries, ports: append([]string(nil), base.Ports...)}
	if base.validateEntries() != nil {
		return d
	}
	d.shared = true
	d.indented, d.compact = base.indentedTable(), base.compactTable()
	d.index = entryIndex(base.Key, base.Entries)
	d.portIdx = entryPortIdx(base.Entries)
	return d
}

// Derive clones the base, lets apply mutate the clone, and returns it
// validated and indexed, as Reindex would leave it. apply may change any
// field and replace Ports, Node, Unknown, or Entries, but must not write
// through Entries, which the clone shares with the base.
//
// The shared table is reused only when it provably encodes the same: the
// clone's Entries still alias the base's array with the same length, and
// its first len(base.Ports) port names are the base's, so every entry
// mask names the same ports (port-count parameters only append ports).
// Anything else falls back to Reindex.
func (d *Deriver) Derive(apply func(*Model) error) (*Model, error) {
	m := d.base.cloneForMutation()
	if err := apply(m); err != nil {
		return nil, err
	}
	if !d.tableUnchanged(m) {
		if err := m.Reindex(); err != nil {
			return nil, err
		}
		return m, nil
	}
	// The entries are valid on the base's ports, so on the clone's too:
	// the clone keeps them and may only have more.
	if err := m.validateMachine(); err != nil {
		return nil, err
	}
	m.index = d.index
	m.portIdx = d.portIdx
	m.finishIndex(d.indented, d.compact)
	return m, nil
}

// tableUnchanged reports whether m's instruction table encodes exactly as
// the Deriver's base table did.
func (d *Deriver) tableUnchanged(m *Model) bool {
	if !d.shared || len(m.Entries) != len(d.entries) || len(m.Ports) < len(d.ports) {
		return false
	}
	if len(m.Entries) > 0 && &m.Entries[0] != &d.entries[0] {
		return false
	}
	for i, p := range d.ports {
		if m.Ports[i] != p {
			return false
		}
	}
	return true
}

// cloneForMutation copies a model deeply enough that mutating any field
// never writes through to the base: the port list (port-count growth
// appends), the node section (bandwidth/TDP set scalars), and the
// unknown-instruction policy get fresh copies; the entry table is shared
// read-only.
func (m *Model) cloneForMutation() *Model {
	c := *m
	c.Ports = append([]string(nil), m.Ports...)
	if np := m.Node; np != nil {
		nc := *np
		if np.ECM != nil {
			ec := *np.ECM
			nc.ECM = &ec
		}
		if np.Freq != nil {
			fc := *np.Freq
			nc.Freq = &fc
		}
		c.Node = &nc
	}
	if m.Unknown != nil {
		uc := *m.Unknown
		c.Unknown = &uc
	}
	return &c
}
