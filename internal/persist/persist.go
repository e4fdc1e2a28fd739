// Package persist saves a loaded XKeyword system to disk and restores
// it, so the load stage's decisions — conformance, the chosen
// decomposition (the Figure 12 algorithm) and its bound M — are made
// once per dataset. The format is a gob stream holding what those
// decisions were: the schema graph, the administrator's TSS spec, the
// typed data graph, the options, M, the fragment list and its physical
// design. Everything derived from them — the object graph, master index,
// statistics and connection relations — is rebuilt at load, and
// target-object BLOBs are serialized on demand (tss.ObjectGraph.BlobXML).
package persist

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/diskindex"
	"repro/internal/kwindex"
	"repro/internal/schema"
	"repro/internal/tss"
	"repro/internal/xmlgraph"
)

// formatVersion guards against loading incompatible snapshots.
//
// History:
//
//	1 — initial format
//	2 — master index moved to a sidecar .xki file (SaveFile writes it
//	    next to the snapshot; LoadFileOpts can serve from it instead of
//	    rebuilding the in-memory index)
//	3 — connection relations and target-object BLOBs are no longer
//	    stored: load re-materializes the relations from the data graph
//	    and the fragment list, and BLOBs are serialized on demand
const formatVersion = 3

type snapshot struct {
	Version int

	SchemaNodes []schemaNodeDTO
	SchemaEdges []schemaEdgeDTO

	Segments    []tss.SegmentSpec
	Annotations []tss.Annotation

	Nodes []nodeDTO
	Edges []edgeDTO

	Opts core.Options

	DecompName    string
	Physical      decomp.Physical
	FragmentSteps [][]stepDTO
	M             int

	// SidecarCRC is the metadata checksum of the .xki sidecar written by
	// the same SaveFile call, linking the two generations: a load that
	// finds a sidecar with a different fingerprint is looking at a stale
	// or foreign index file. Zero (including in pre-linkage snapshots,
	// which gob decodes with the field absent) skips the check.
	SidecarCRC uint32
}

type schemaNodeDTO struct {
	Name, Tag string
	Kind      uint8
	Root      bool
}

type schemaEdgeDTO struct {
	From, To  string
	Kind      uint8
	MaxOccurs int
}

type nodeDTO struct {
	ID           int64
	Label, Value string
	Type         string
}

type edgeDTO struct {
	From, To int64
	Kind     uint8
}

type stepDTO struct {
	EdgeID int
	Dir    uint8
}

// Save writes the system to w. Writers that need crash safety and the
// snapshot↔sidecar linkage should use SaveFile.
func Save(w io.Writer, sys *core.System, spec tss.Spec) error {
	return gob.NewEncoder(w).Encode(buildSnapshot(sys, spec))
}

func buildSnapshot(sys *core.System, spec tss.Spec) *snapshot {
	snap := snapshot{
		Version:     formatVersion,
		Segments:    spec.Segments,
		Annotations: spec.Annotations,
		Opts:        sys.Opts,
		DecompName:  sys.Decomp.Name,
		Physical:    sys.Decomp.Physical,
		M:           sys.M,
	}
	for _, name := range sys.Schema.Nodes() {
		n := sys.Schema.Node(name)
		snap.SchemaNodes = append(snap.SchemaNodes, schemaNodeDTO{
			Name: n.Name, Tag: n.Tag, Kind: uint8(n.Kind), Root: n.Root,
		})
	}
	for _, e := range sys.Schema.Edges() {
		snap.SchemaEdges = append(snap.SchemaEdges, schemaEdgeDTO{
			From: e.From, To: e.To, Kind: uint8(e.Kind), MaxOccurs: e.MaxOccurs,
		})
	}
	for _, id := range sys.Data.Nodes() {
		n := sys.Data.Node(id)
		snap.Nodes = append(snap.Nodes, nodeDTO{ID: int64(id), Label: n.Label, Value: n.Value, Type: n.Type})
	}
	for _, e := range sys.Data.Edges() {
		snap.Edges = append(snap.Edges, edgeDTO{From: int64(e.From), To: int64(e.To), Kind: uint8(e.Kind)})
	}
	for _, f := range sys.Decomp.Fragments {
		var steps []stepDTO
		for _, s := range f.Steps() {
			steps = append(steps, stepDTO{EdgeID: s.EdgeID, Dir: uint8(s.Dir)})
		}
		snap.FragmentSteps = append(snap.FragmentSteps, steps)
	}
	return &snap
}

// SidecarPath returns the master-index sidecar written next to a
// snapshot at path.
func SidecarPath(path string) string { return path + ".xki" }

// saveWriter lets crash tests interpose a fault.LimitWriter between the
// snapshot encoder and the temp file; production leaves it the identity.
var saveWriter = func(f *os.File) io.Writer { return f }

// SaveFile writes the system to path, plus the master index as a paged
// sidecar at SidecarPath(path), so a later LoadFileOpts with DiskIndex
// can start serving without rebuilding (or even holding) the index.
//
// Both files are written crash-safely (temp + fsync + rename), sidecar
// first: the snapshot records the sidecar's checksum, and its rename is
// the commit point for the pair. A crash at any instant leaves the
// previous generation loadable — at worst with an orphaned new-sidecar
// whose fingerprint no snapshot references.
func SaveFile(path string, sys *core.System, spec tss.Spec) error {
	ix, ok := sys.Index.(*kwindex.Index)
	if !ok {
		// The system already serves from disk; re-derive the postings for
		// a fresh, self-contained sidecar.
		ix = kwindex.Build(sys.Obj)
	}
	crc, err := diskindex.CreateCRC(SidecarPath(path), ix)
	if err != nil {
		return err
	}
	snap := buildSnapshot(sys, spec)
	snap.SidecarCRC = crc
	return atomicio.WriteFile(path, func(f *os.File) error {
		return gob.NewEncoder(saveWriter(f)).Encode(snap)
	})
}

// Load restores a system from r, skipping the load stage's decisions:
// the schema, data graph, options and decomposition come from the
// snapshot; what they determine (TSS graph, object graph, master index,
// statistics, connection relations) is rebuilt.
func Load(r io.Reader) (*core.System, error) {
	sys, _, err := load(r)
	if err != nil {
		return nil, err
	}
	sys.Index = kwindex.Build(sys.Obj)
	return sys, nil
}

// load restores everything but the master index, which the caller
// attaches (rebuilt in memory, or a disk-backed reader). It also returns
// the decoded snapshot so callers can check the sidecar linkage.
func load(r io.Reader) (*core.System, *snapshot, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	if snap.Version != formatVersion {
		return nil, nil, fmt.Errorf("persist: snapshot format version %d, but this build reads version %d — re-run the load stage (xkeyword -save) to regenerate the snapshot", snap.Version, formatVersion)
	}
	if err := snap.Opts.Validate(); err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}

	sg := schema.New()
	for _, n := range snap.SchemaNodes {
		if err := sg.AddTaggedNode(n.Name, n.Tag, schema.NodeKind(n.Kind)); err != nil {
			return nil, nil, err
		}
		if n.Root {
			if err := sg.SetRoot(n.Name); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, e := range snap.SchemaEdges {
		if err := sg.AddEdge(e.From, e.To, xmlgraph.EdgeKind(e.Kind), e.MaxOccurs); err != nil {
			return nil, nil, err
		}
	}

	data := xmlgraph.New()
	for _, n := range snap.Nodes {
		if err := data.AddNodeWithID(xmlgraph.NodeID(n.ID), n.Label, n.Value); err != nil {
			return nil, nil, err
		}
		data.SetType(xmlgraph.NodeID(n.ID), n.Type)
	}
	for _, e := range snap.Edges {
		if err := data.AddEdge(xmlgraph.NodeID(e.From), xmlgraph.NodeID(e.To), xmlgraph.EdgeKind(e.Kind)); err != nil {
			return nil, nil, err
		}
	}

	spec := tss.Spec{Segments: snap.Segments, Annotations: snap.Annotations}
	tg, err := tss.Derive(sg, spec)
	if err != nil {
		return nil, nil, err
	}
	og, err := tg.Decompose(data)
	if err != nil {
		return nil, nil, err
	}

	d := &decomp.Decomposition{Name: snap.DecompName, Physical: snap.Physical}
	for i, steps := range snap.FragmentSteps {
		ss := make([]decomp.Step, len(steps))
		for j, s := range steps {
			ss[j] = decomp.Step{EdgeID: s.EdgeID, Dir: decomp.Dir(s.Dir)}
		}
		f, err := decomp.NewFragment(tg, ss)
		if err != nil {
			return nil, nil, fmt.Errorf("persist: fragment %d: %w", i, err)
		}
		d.Fragments = append(d.Fragments, f)
	}
	sys, err := core.NewSystem(&tss.Dataset{Schema: sg, Spec: spec, TSS: tg, Data: data, Obj: og}, d, snap.M, snap.Opts)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	return sys, &snap, nil
}

// LoadFile restores a system from path with an in-memory master index.
func LoadFile(path string) (*core.System, error) {
	return LoadFileOpts(path, LoadOptions{})
}

// LoadOptions configure LoadFileOpts.
type LoadOptions struct {
	// DiskIndex serves the master index from the SidecarPath(path) file
	// through a buffer pool instead of rebuilding it in memory, making
	// cold start independent of index size.
	DiskIndex bool
	// IndexCacheBytes is the buffer-pool budget for DiskIndex
	// (0 = diskindex.DefaultCacheBytes).
	IndexCacheBytes int64
	// SelfHeal makes a DiskIndex load survive sidecar loss and
	// corruption instead of erroring: a sidecar that is missing, fails
	// validation, or mismatches the snapshot's recorded checksum, and
	// one that fails later at lookup time, take one path: the index is a
	// kwindex.Failover, which quarantines the sidecar, rebuilds the index
	// in memory and reports degraded. Without it a bad sidecar is a hard
	// load error.
	SelfHeal bool
	// OnDegrade, if set, is called with the cause whenever SelfHeal
	// abandons the sidecar — at load time or on first failed lookup.
	OnDegrade func(error)
	// WrapReaderAt is the fault-injection seam passed through to
	// diskindex.Options (chaos tests only).
	WrapReaderAt func(io.ReaderAt) io.ReaderAt
}

// LoadFileOpts restores a system from path, choosing the master-index
// backend per opts. It begins with a recovery sweep: temp files orphaned
// by a crash mid-SaveFile are quarantined (renamed *.torn) so they can
// never shadow a future write.
func LoadFileOpts(path string, opts LoadOptions) (*core.System, error) {
	for _, target := range []string{path, SidecarPath(path)} {
		if _, err := atomicio.Sweep(target); err != nil {
			return nil, fmt.Errorf("persist: recovery sweep: %w", err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //xk:ignore errdrop read-only snapshot; Close cannot lose data
	if !opts.DiskIndex {
		return Load(f)
	}
	sys, snap, err := load(f)
	if err != nil {
		return nil, err
	}
	side := SidecarPath(path)
	rd, err := diskindex.Open(side, diskindex.Options{
		CacheBytes:   opts.IndexCacheBytes,
		WrapReaderAt: opts.WrapReaderAt,
	})
	if err == nil && snap.SidecarCRC != 0 && rd.MetaCRC() != snap.SidecarCRC {
		err = fmt.Errorf("persist: sidecar %s checksum %#x does not match the snapshot's recorded %#x — stale or foreign index file",
			side, rd.MetaCRC(), snap.SidecarCRC)
		_, _ = rd.Quarantine() //xk:ignore errdrop the checksum error is what gets reported
	}
	if !opts.SelfHeal {
		if err != nil {
			return nil, fmt.Errorf("persist: opening disk index (was the snapshot written by this version's SaveFile?): %w", err)
		}
		sys.Index = rd
		return sys, nil
	}
	// One heal path: a sidecar that will not open degrades at once, one
	// that fails a lookup degrades then; either way the sidecar is closed
	// and quarantined (if it is still at its path) and the index rebuilt
	// in memory.
	obj := sys.Obj
	rebuild := func() (kwindex.Source, error) {
		if rd != nil {
			_ = rd.Close() //xk:ignore errdrop read-only file being abandoned
		}
		_, _ = atomicio.Quarantine(side) //xk:ignore errdrop the failover reports its own cause
		return kwindex.Build(obj), nil
	}
	if err != nil {
		sys.Index = kwindex.NewDegradedFailover(err, rebuild, opts.OnDegrade)
	} else {
		sys.Index = kwindex.NewFailover(rd, rebuild, opts.OnDegrade)
	}
	return sys, nil
}
