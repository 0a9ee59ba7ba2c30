package uarch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"incore/internal/isa"
)

// Machine-file serialization: models can be exported to and loaded from a
// JSON format analogous to OSACA's YAML machine files, so users can supply
// their own microarchitectures to the tools without recompiling.
//
// Port masks are serialized as port-name lists for readability.

type machineFile struct {
	Key     string `json:"key"`
	Name    string `json:"name"`
	CPU     string `json:"cpu"`
	Vendor  string `json:"vendor"`
	Dialect string `json:"dialect"`

	Ports []string `json:"ports"`

	IssueWidth  int `json:"issue_width"`
	DecodeWidth int `json:"decode_width"`
	RetireWidth int `json:"retire_width"`
	ROBSize     int `json:"rob_size"`
	SchedSize   int `json:"scheduler_size"`
	PhysVecRegs int `json:"phys_vec_regs,omitempty"`
	PhysGPRegs  int `json:"phys_gp_regs,omitempty"`

	LoadPorts      []string `json:"load_ports"`
	StoreAGUPorts  []string `json:"store_agu_ports"`
	StoreDataPorts []string `json:"store_data_ports"`
	LoadLat        int      `json:"load_latency"`
	LoadWidthBits  int      `json:"load_width_bits"`
	StoreWidthBits int      `json:"store_width_bits"`
	WideLoadPorts  []string `json:"wide_load_ports,omitempty"`
	WideLoadBits   int      `json:"wide_load_bits,omitempty"`

	VecWidth      int     `json:"vec_width"`
	CoresPerChip  int     `json:"cores_per_chip"`
	BaseFreqGHz   float64 `json:"base_freq_ghz"`
	MaxFreqGHz    float64 `json:"max_freq_ghz"`
	FPVectorUnits int     `json:"fp_vector_units"`
	IntUnits      int     `json:"int_units"`

	Node *machineNode `json:"node,omitempty"`

	Unknown *machineUnknown `json:"unknown,omitempty"`

	Entries []machineEntry `json:"instructions"`
}

// machineUnknown is the optional unknown-instruction policy: the
// conservative descriptor degraded lookups synthesize for mnemonics the
// instruction table cannot describe. Omitted fields keep the defaults
// (all ports, latency 1, occupancy 1).
type machineUnknown struct {
	Ports  []string `json:"ports,omitempty"`
	Lat    int      `json:"latency,omitempty"`
	Cycles float64  `json:"cycles,omitempty"`
}

// machineNode is the optional node-level section: the calibration the
// ECM model, the frequency governor, and the Roofline ceilings need
// beyond the in-core tables (see NodeParams).
type machineNode struct {
	MemBWGBs      float64      `json:"mem_bandwidth_gbs,omitempty"`
	FlopsPerCycle int          `json:"flops_per_cycle,omitempty"`
	ECM           *machineECM  `json:"ecm,omitempty"`
	Freq          *machineFreq `json:"freq,omitempty"`
}

type machineECM struct {
	L1L2BytesPerCycle float64 `json:"l1_l2_bytes_per_cycle"`
	L2L3BytesPerCycle float64 `json:"l2_l3_bytes_per_cycle"`
	// Overlap lists the transfer levels that overlap with the rest of
	// the data chain; any subset of "l1l2", "l2l3", "l3mem".
	Overlap []string `json:"overlap,omitempty"`
}

type machineFreq struct {
	TDPWatts           float64            `json:"tdp_watts"`
	UncoreWatts        float64            `json:"uncore_watts"`
	StaticWattsPerCore float64            `json:"static_watts_per_core"`
	MinFreqGHz         float64            `json:"min_freq_ghz"`
	ActivityFactor     map[string]float64 `json:"activity_factor"`
	MaxFreqGHz         map[string]float64 `json:"max_freq_ghz"`
	WidestVectorExt    string             `json:"widest_vector_ext,omitempty"`
}

// overlapLevelNames is the canonical writer order of machineECM.Overlap;
// ReadJSON accepts any order.
var overlapLevelNames = [3]string{"l1l2", "l2l3", "l3mem"}

func nodeToWire(np *NodeParams) *machineNode {
	if np == nil {
		return nil
	}
	mn := &machineNode{MemBWGBs: np.MemBWGBs, FlopsPerCycle: np.FlopsPerCycle}
	if e := np.ECM; e != nil {
		me := &machineECM{
			L1L2BytesPerCycle: e.L1L2BytesPerCycle,
			L2L3BytesPerCycle: e.L2L3BytesPerCycle,
		}
		for i, on := range [3]bool{e.OverlapL1L2, e.OverlapL2L3, e.OverlapL3Mem} {
			if on {
				me.Overlap = append(me.Overlap, overlapLevelNames[i])
			}
		}
		mn.ECM = me
	}
	if f := np.Freq; f != nil {
		mn.Freq = &machineFreq{
			TDPWatts: f.TDPWatts, UncoreWatts: f.UncoreWatts,
			StaticWattsPerCore: f.StaticWattsPerCore, MinFreqGHz: f.MinFreqGHz,
			ActivityFactor: f.ActivityFactor, MaxFreqGHz: f.MaxFreqGHz,
			WidestVectorExt: f.WidestVectorExt,
		}
	}
	return mn
}

func nodeFromWire(mn *machineNode) (*NodeParams, error) {
	if mn == nil {
		return nil, nil
	}
	np := &NodeParams{MemBWGBs: mn.MemBWGBs, FlopsPerCycle: mn.FlopsPerCycle}
	if me := mn.ECM; me != nil {
		e := &ECMParams{
			L1L2BytesPerCycle: me.L1L2BytesPerCycle,
			L2L3BytesPerCycle: me.L2L3BytesPerCycle,
		}
		for _, name := range me.Overlap {
			switch name {
			case "l1l2":
				e.OverlapL1L2 = true
			case "l2l3":
				e.OverlapL2L3 = true
			case "l3mem":
				e.OverlapL3Mem = true
			default:
				return nil, fmt.Errorf("uarch: machine file: unknown ECM overlap level %q", name)
			}
		}
		np.ECM = e
	}
	if mf := mn.Freq; mf != nil {
		np.Freq = &FreqParams{
			TDPWatts: mf.TDPWatts, UncoreWatts: mf.UncoreWatts,
			StaticWattsPerCore: mf.StaticWattsPerCore, MinFreqGHz: mf.MinFreqGHz,
			ActivityFactor: mf.ActivityFactor, MaxFreqGHz: mf.MaxFreqGHz,
			WidestVectorExt: mf.WidestVectorExt,
		}
	}
	return np, nil
}

type machineEntry struct {
	Mnemonic string       `json:"mnemonic"`
	Sig      string       `json:"sig,omitempty"`
	Width    int          `json:"width,omitempty"`
	Lat      int          `json:"latency"`
	Uops     []machineUop `json:"uops"`
	Notes    string       `json:"notes,omitempty"`
}

type machineUop struct {
	Ports  []string `json:"ports"`
	Cycles float64  `json:"cycles"`
	Kind   string   `json:"kind,omitempty"`
}

func kindName(k UopKind) string {
	if k == UopCompute {
		return ""
	}
	return k.String()
}

func kindFromName(s string) (UopKind, error) {
	switch s {
	case "", "compute":
		return UopCompute, nil
	case "load":
		return UopLoad, nil
	case "staddr":
		return UopStoreAddr, nil
	case "stdata":
		return UopStoreData, nil
	case "branch":
		return UopBranch, nil
	default:
		return 0, fmt.Errorf("uarch: unknown µ-op kind %q", s)
	}
}

// WriteJSON serializes the model as a machine file.
func (m *Model) WriteJSON(w io.Writer) error {
	mf := m.wireHeader()
	mf.Entries = m.wireEntries(true)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(mf)
}

// wireHeader is the machine-file wire form of everything but the
// instruction table (Entries stays nil).
func (m *Model) wireHeader() machineFile {
	mf := machineFile{
		Key: m.Key, Name: m.Name, CPU: m.CPU, Vendor: m.Vendor,
		Dialect: m.Dialect.String(), Ports: m.Ports,
		IssueWidth: m.IssueWidth, DecodeWidth: m.DecodeWidth,
		RetireWidth: m.RetireWidth, ROBSize: m.ROBSize, SchedSize: m.SchedSize,
		PhysVecRegs: m.PhysVecRegs, PhysGPRegs: m.PhysGPRegs,
		LoadPorts:      m.maskNames(m.LoadPorts),
		StoreAGUPorts:  m.maskNames(m.StoreAGUPorts),
		StoreDataPorts: m.maskNames(m.StoreDataPorts),
		LoadLat:        m.LoadLat, LoadWidthBits: m.LoadWidthBits,
		StoreWidthBits: m.StoreWidthBits,
		WideLoadPorts:  m.maskNames(m.WideLoadPorts), WideLoadBits: m.WideLoadBits,
		VecWidth: m.VecWidth, CoresPerChip: m.CoresPerChip,
		BaseFreqGHz: m.BaseFreqGHz, MaxFreqGHz: m.MaxFreqGHz,
		FPVectorUnits: m.FPVectorUnits, IntUnits: m.IntUnits,
		Node: nodeToWire(m.Node),
	}
	if u := m.Unknown; u != nil {
		mf.Unknown = &machineUnknown{Ports: m.maskNames(u.Ports), Lat: u.Lat, Cycles: u.Cycles}
	}
	return mf
}

// wireEntries is the wire form of the instruction table. Notes are kept
// for the machine file and dropped for the port signature: they are
// provenance documentation, not modeling content, so a comment edit
// must not invalidate shared artifacts.
func (m *Model) wireEntries(notes bool) []machineEntry {
	var out []machineEntry
	for _, e := range m.Entries {
		me := machineEntry{Mnemonic: e.Mnemonic, Sig: e.Sig, Width: e.Width, Lat: e.Lat}
		if notes {
			me.Notes = e.Notes
		}
		me.Uops = []machineUop{}
		for _, u := range e.Uops {
			me.Uops = append(me.Uops, machineUop{
				Ports: m.maskNames(u.Ports), Cycles: u.Cycles, Kind: kindName(u.Kind),
			})
		}
		out = append(out, me)
	}
	return out
}

func (m *Model) maskNames(mask PortMask) []string {
	var out []string
	for _, i := range mask.Indices() {
		out = append(out, m.Ports[i])
	}
	return out
}

// ReadJSON loads a machine file, validates it, and builds its lookup
// index and content fingerprint; the returned model is ready for use
// with all tools (Register it to make it resolvable by key).
func ReadJSON(r io.Reader) (*Model, error) {
	var mf machineFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		return nil, fmt.Errorf("uarch: machine file: %w", err)
	}
	// A machine file is exactly one JSON document: trailing data is a
	// malformed (possibly truncated-then-concatenated) file, not noise
	// to ignore. A non-syntax error here is the reader failing, not
	// trailing content — surface it as itself.
	switch _, err := dec.Token(); {
	case err == io.EOF:
	case err == nil:
		return nil, fmt.Errorf("uarch: machine file: trailing data after JSON document")
	default:
		var syn *json.SyntaxError
		if errors.As(err, &syn) {
			return nil, fmt.Errorf("uarch: machine file: trailing data after JSON document")
		}
		return nil, fmt.Errorf("uarch: machine file: %w", err)
	}
	m := &Model{
		Key: mf.Key, Name: mf.Name, CPU: mf.CPU, Vendor: mf.Vendor,
		Ports:      mf.Ports,
		IssueWidth: mf.IssueWidth, DecodeWidth: mf.DecodeWidth,
		RetireWidth: mf.RetireWidth, ROBSize: mf.ROBSize, SchedSize: mf.SchedSize,
		PhysVecRegs: mf.PhysVecRegs, PhysGPRegs: mf.PhysGPRegs,
		LoadLat: mf.LoadLat, LoadWidthBits: mf.LoadWidthBits,
		StoreWidthBits: mf.StoreWidthBits, WideLoadBits: mf.WideLoadBits,
		VecWidth: mf.VecWidth, CoresPerChip: mf.CoresPerChip,
		BaseFreqGHz: mf.BaseFreqGHz, MaxFreqGHz: mf.MaxFreqGHz,
		FPVectorUnits: mf.FPVectorUnits, IntUnits: mf.IntUnits,
	}
	switch mf.Dialect {
	case "x86":
		m.Dialect = isa.DialectX86
	case "aarch64":
		m.Dialect = isa.DialectAArch64
	default:
		return nil, fmt.Errorf("uarch: machine file: unknown dialect %q", mf.Dialect)
	}
	for _, pm := range []struct {
		mask  *PortMask
		names []string
	}{
		{&m.LoadPorts, mf.LoadPorts}, {&m.StoreAGUPorts, mf.StoreAGUPorts},
		{&m.StoreDataPorts, mf.StoreDataPorts}, {&m.WideLoadPorts, mf.WideLoadPorts},
	} {
		mask, err := m.portMask(pm.names)
		if err != nil {
			return nil, fmt.Errorf("uarch: machine file: %w", err)
		}
		*pm.mask = mask
	}
	var err error
	if m.Node, err = nodeFromWire(mf.Node); err != nil {
		return nil, err
	}
	if mu := mf.Unknown; mu != nil {
		mask, err := m.portMask(mu.Ports)
		if err != nil {
			return nil, fmt.Errorf("uarch: machine file: unknown section: %w", err)
		}
		m.Unknown = &UnknownPolicy{Ports: mask, Lat: mu.Lat, Cycles: mu.Cycles}
	}
	for _, me := range mf.Entries {
		e := Entry{Mnemonic: me.Mnemonic, Sig: me.Sig, Width: me.Width, Lat: me.Lat, Notes: me.Notes}
		e.Uops = []Uop{}
		for _, mu := range me.Uops {
			mask, err := m.portMask(mu.Ports)
			if err != nil {
				return nil, fmt.Errorf("uarch: machine file: entry %s: %w", me.Mnemonic, err)
			}
			kind, err := kindFromName(mu.Kind)
			if err != nil {
				return nil, err
			}
			e.Uops = append(e.Uops, Uop{Ports: mask, Cycles: mu.Cycles, Kind: kind})
		}
		m.Entries = append(m.Entries, e)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	m.buildIndex()
	return m, nil
}

// The identities hash the wire forms in two parts: a per-model header and
// the instruction table, encoded separately so what-if variants that keep
// their base's table (see Deriver) hash the base's encoding instead of
// re-encoding it. The header encodes with a nil table, which puts the
// table's place at its very end: `"instructions": null` then the closing
// brace. Cutting "null" and what follows and appending the table and the
// closing bytes gives exactly the bytes of encoding the whole struct.
var (
	indentedCut  = []byte("null\n}")
	indentedTail = []byte("\n}\n")
	compactCut   = []byte("null}")
	compactTail  = []byte("}")
)

// indentedTable is the instruction table exactly as WriteJSON writes it,
// at depth 1 of the machine file.
func (m *Model) indentedTable() []byte {
	data, err := json.MarshalIndent(m.wireEntries(true), "  ", "  ")
	if err != nil {
		panic(fmt.Sprintf("uarch: fingerprint %s: %v", m.Key, err))
	}
	return data
}

// compactTable is the instruction table as the port signature encodes it:
// compact, without notes.
func (m *Model) compactTable() []byte {
	data, err := json.Marshal(m.wireEntries(false))
	if err != nil {
		panic(fmt.Sprintf("uarch: port signature %s: %v", m.Key, err))
	}
	return data
}

// splitDigest returns the sha256 hex of header (with cut removed from its
// end), table, and tail.
func splitDigest(header, cut, table, tail []byte) string {
	if !bytes.HasSuffix(header, cut) {
		panic(fmt.Sprintf("uarch: wire header does not end in %q", cut))
	}
	h := sha256.New()
	h.Write(header[:len(header)-len(cut)])
	h.Write(table)
	h.Write(tail)
	return hex.EncodeToString(h.Sum(nil))
}

// computeFingerprint hashes the canonical machine-file wire form, the
// WriteJSON bytes, given the model's indentedTable. The form is
// deterministic — struct fields encode in declaration order, maps sort by
// key, floats use the shortest round-trippable representation — so equal
// model content always yields equal bytes and therefore equal
// fingerprints, across processes and builds.
func (m *Model) computeFingerprint(table []byte) string {
	header, err := json.MarshalIndent(m.wireHeader(), "", "  ")
	if err != nil {
		panic(fmt.Sprintf("uarch: fingerprint %s: %v", m.Key, err))
	}
	return splitDigest(header, indentedCut, table, indentedTail)
}

// portFile is the canonical wire subset behind Model.PortSignature: every
// field the in-core stages read — descriptor resolution (entries, unknown
// policy, memory pipeline, port count), port-pressure analysis and mca
// lowering (port masks via the descriptors), and sim compilation/execution
// (dialect, lookup tables, and the structural frontend/backend parameters
// the engine reads from its retained model pointer) — and nothing else.
// Key, labels, clocking, core counts, and the node section are deliberately
// absent: varying them must not change the signature.
type portFile struct {
	Dialect string   `json:"dialect"`
	Ports   []string `json:"ports"`

	IssueWidth  int `json:"issue_width"`
	DecodeWidth int `json:"decode_width"`
	RetireWidth int `json:"retire_width"`
	ROBSize     int `json:"rob_size"`
	SchedSize   int `json:"scheduler_size"`
	PhysVecRegs int `json:"phys_vec_regs,omitempty"`
	PhysGPRegs  int `json:"phys_gp_regs,omitempty"`

	LoadPorts      []string `json:"load_ports"`
	StoreAGUPorts  []string `json:"store_agu_ports"`
	StoreDataPorts []string `json:"store_data_ports"`
	LoadLat        int      `json:"load_latency"`
	LoadWidthBits  int      `json:"load_width_bits"`
	StoreWidthBits int      `json:"store_width_bits"`
	WideLoadPorts  []string `json:"wide_load_ports,omitempty"`
	WideLoadBits   int      `json:"wide_load_bits,omitempty"`

	Unknown *machineUnknown `json:"unknown,omitempty"`

	Entries []machineEntry `json:"instructions"`
}

// computePortSignature hashes the compact encoding of the port-relevant
// model subset (see portFile), given the model's compactTable. Like
// computeFingerprint, the encoding is deterministic, so equal in-core
// content always yields equal signatures across processes and builds.
func (m *Model) computePortSignature(table []byte) string {
	pf := portFile{
		Dialect: m.Dialect.String(), Ports: m.Ports,
		IssueWidth: m.IssueWidth, DecodeWidth: m.DecodeWidth,
		RetireWidth: m.RetireWidth, ROBSize: m.ROBSize, SchedSize: m.SchedSize,
		PhysVecRegs: m.PhysVecRegs, PhysGPRegs: m.PhysGPRegs,
		LoadPorts:      m.maskNames(m.LoadPorts),
		StoreAGUPorts:  m.maskNames(m.StoreAGUPorts),
		StoreDataPorts: m.maskNames(m.StoreDataPorts),
		LoadLat:        m.LoadLat, LoadWidthBits: m.LoadWidthBits,
		StoreWidthBits: m.StoreWidthBits,
		WideLoadPorts:  m.maskNames(m.WideLoadPorts), WideLoadBits: m.WideLoadBits,
	}
	if u := m.Unknown; u != nil {
		pf.Unknown = &machineUnknown{Ports: m.maskNames(u.Ports), Lat: u.Lat, Cycles: u.Cycles}
	}
	header, err := json.Marshal(pf)
	if err != nil {
		panic(fmt.Sprintf("uarch: port signature %s: %v", m.Key, err))
	}
	return splitDigest(header, compactCut, table, compactTail)
}
