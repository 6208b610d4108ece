package circuit

import (
	"fmt"
	"strings"
)

// CSR is the compact struct-of-arrays (compressed-sparse-row) view of a
// Circuit: the whole topology flattened into a handful of int32 arrays, plus
// the levelized topological order every sweep walks. It exists so the hot
// analysis paths (full delay sweeps, incremental re-timing, criticality
// passes, streaming path enumeration) touch only dense, cache-friendly arrays
// instead of chasing per-gate slice headers — the difference between hundreds
// and a million gates.
//
// A CSR is immutable and owned by its Circuit; it is built once (lazily, or
// eagerly at Builder.Build/ParseBench time for acyclic circuits) and shared
// by every engine clone. All arrays are indexed by gate ID. Callers must
// treat every exposed slice as read-only.
type CSR struct {
	// FaninStart/FaninList: gate id's fanins are
	// FaninList[FaninStart[id]:FaninStart[id+1]], in declaration order —
	// identical to Gate.Fanin. FanoutStart/FanoutList mirror Gate.Fanout.
	FaninStart  []int32
	FaninList   []int32
	FanoutStart []int32
	FanoutList  []int32

	// Order is the topological order of all gate IDs, grouped by level:
	// Order[LevelStart[l]:LevelStart[l+1]] holds the gates of level l, in
	// the same relative sequence Kahn's FIFO walk produces (so Order is
	// element-for-element the slice TopoOrder returns). Rank is the inverse
	// permutation; Level is the longest-logic-chain level per gate (inputs
	// are 0, see Circuit.Levels).
	Order      []int32
	Rank       []int32
	Level      []int32
	LevelStart []int32

	// IsLogic[id] caches Gate.IsLogic so sweeps skip the Gate deref.
	IsLogic []bool

	// Depth is the maximum level (the circuit's logic depth).
	Depth int
}

// N returns the number of gates.
//
//cmosvet:hotpath
func (s *CSR) N() int { return len(s.FaninStart) - 1 }

// NumLevels returns the number of level groups (Depth+1, level 0 = inputs).
//
//cmosvet:hotpath
func (s *CSR) NumLevels() int { return len(s.LevelStart) - 1 }

// Fanins returns gate id's fanin IDs (read-only, declaration order).
//
//cmosvet:hotpath
func (s *CSR) Fanins(id int32) []int32 {
	return s.FaninList[s.FaninStart[id]:s.FaninStart[id+1]]
}

// Fanouts returns gate id's fanout IDs (read-only).
//
//cmosvet:hotpath
func (s *CSR) Fanouts(id int32) []int32 {
	return s.FanoutList[s.FanoutStart[id]:s.FanoutStart[id+1]]
}

// NumFanout returns gate id's fanout count.
//
//cmosvet:hotpath
func (s *CSR) NumFanout(id int32) int {
	return int(s.FanoutStart[id+1] - s.FanoutStart[id])
}

// LevelGates returns the gate IDs of one level, in topological-order sequence.
//
//cmosvet:hotpath
func (s *CSR) LevelGates(l int) []int32 {
	return s.Order[s.LevelStart[l]:s.LevelStart[l+1]]
}

// CSR returns the circuit's compact struct-of-arrays view, building and
// caching it on first use. It fails on a combinational cycle (cut DFFs with
// Combinational first). Like TopoOrder's cache, the first build is not
// goroutine-safe; construct it before fanning out (Builder.Build, ParseBench
// and netgen do so eagerly for acyclic circuits).
func (c *Circuit) CSR() (*CSR, error) {
	if c.csr != nil {
		return c.csr, nil
	}
	s, err := buildCSR(c)
	if err != nil {
		return nil, err
	}
	c.csr = s
	return s, nil
}

// buildCSR flattens the circuit into CSR form and levelizes it. The
// topological order is computed with the same Kahn FIFO walk TopoOrder has
// always used, so the order (and everything downstream of it) is
// byte-identical to the legacy slice walk.
func buildCSR(c *Circuit) (*CSR, error) {
	n := len(c.Gates)
	s := &CSR{
		FaninStart:  make([]int32, n+1),
		FanoutStart: make([]int32, n+1),
		Order:       make([]int32, 0, n),
		Rank:        make([]int32, n),
		Level:       make([]int32, n),
		IsLogic:     make([]bool, n),
	}
	var nf, no int32
	for i := range c.Gates {
		g := &c.Gates[i]
		s.FaninStart[i] = nf
		s.FanoutStart[i] = no
		nf += int32(len(g.Fanin))
		no += int32(len(g.Fanout))
		s.IsLogic[i] = g.IsLogic()
	}
	s.FaninStart[n], s.FanoutStart[n] = nf, no
	s.FaninList = make([]int32, nf)
	s.FanoutList = make([]int32, no)
	nf, no = 0, 0
	for i := range c.Gates {
		g := &c.Gates[i]
		for _, f := range g.Fanin {
			s.FaninList[nf] = int32(f)
			nf++
		}
		for _, f := range g.Fanout {
			s.FanoutList[no] = int32(f)
			no++
		}
	}

	// Kahn FIFO over the flat arrays. The queue is the Order slice itself:
	// gates are appended as they become ready and consumed by a moving head.
	indeg := make([]int32, n)
	for i := 0; i < n; i++ {
		indeg[i] = s.FaninStart[i+1] - s.FaninStart[i]
	}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			s.Order = append(s.Order, int32(i))
		}
	}
	for head := 0; head < len(s.Order); head++ {
		id := s.Order[head]
		for _, f := range s.Fanouts(id) {
			indeg[f]--
			if indeg[f] == 0 {
				s.Order = append(s.Order, f)
			}
		}
	}
	if len(s.Order) != n {
		return nil, fmt.Errorf("circuit %q: combinational cycle involving %d gates", c.Name, n-len(s.Order))
	}

	// Levels (longest logic chain; Input gates pinned to 0) and ranks.
	depth := int32(0)
	for rank, id := range s.Order {
		s.Rank[id] = int32(rank)
		if c.Gates[id].Type == Input {
			s.Level[id] = 0
			continue
		}
		maxIn := int32(0)
		for _, f := range s.Fanins(id) {
			if s.Level[f] > maxIn {
				maxIn = s.Level[f]
			}
		}
		s.Level[id] = maxIn + 1
		if s.Level[id] > depth {
			depth = s.Level[id]
		}
	}
	s.Depth = int(depth)

	// Level group boundaries. Kahn's FIFO order visits levels monotonically
	// on every circuit Validate accepts (a gate becomes ready only when its
	// max-level fanin's group is being drained), so the grouped order IS the
	// legacy TopoOrder — verified here rather than assumed. Degenerate
	// hand-built graphs (a zero-fanin non-Input gate) can break monotonicity;
	// those fall back to a stable counting sort by level, which still yields
	// a correct levelized topological order.
	monotone := true
	prev := int32(0)
	for _, id := range s.Order {
		if s.Level[id] < prev {
			monotone = false
			break
		}
		prev = s.Level[id]
	}
	if !monotone {
		sorted := make([]int32, 0, n)
		for l := int32(0); l <= depth; l++ {
			for _, id := range s.Order {
				if s.Level[id] == l {
					sorted = append(sorted, id)
				}
			}
		}
		s.Order = sorted
		for rank, id := range s.Order {
			s.Rank[id] = int32(rank)
		}
	}
	s.LevelStart = make([]int32, depth+2)
	prev = 0
	for rank, id := range s.Order {
		for l := s.Level[id]; prev < l; prev++ {
			s.LevelStart[prev+1] = int32(rank)
		}
	}
	s.LevelStart[depth+1] = int32(n)
	return s, nil
}

// seal finalizes a freshly constructed, validated circuit: edge slices are
// repacked into shared arenas and, for acyclic circuits, the CSR view is built
// eagerly so later concurrent readers (engine clones, parallel sweeps) only
// ever see a populated cache. Sequential circuits are cyclic until
// Combinational cuts their DFFs; for those the CSR is left to be built on the
// cut copy.
func (c *Circuit) seal() {
	c.compactEdges()
	c.internNames()
	if !c.IsSequential() {
		// Best effort: a DFF-free netlist with a combinational cycle still
		// fails here; the error resurfaces on the first TopoOrder/CSR call.
		_, _ = c.CSR()
	}
}

// internNames re-points every gate's name at a slice of one shared backing
// string (the side table), so a million-gate circuit holds one name
// allocation instead of a million tiny ones. Each Gate.Name value is
// unchanged; only the backing storage is shared. The name→id index stays
// lazy (see GateByName).
func (c *Circuit) internNames() {
	total := 0
	for i := range c.Gates {
		total += len(c.Gates[i].Name)
	}
	var sb strings.Builder
	sb.Grow(total)
	for i := range c.Gates {
		sb.WriteString(c.Gates[i].Name)
	}
	table := sb.String()
	off := 0
	for i := range c.Gates {
		n := len(c.Gates[i].Name)
		c.Gates[i].Name = table[off : off+n]
		off += n
	}
}

// compactEdges repacks every gate's Fanin/Fanout slice into two shared flat
// arenas. The per-gate views keep their exact contents (the public API is
// unchanged) but the thousands-to-millions of small slice allocations a build
// accumulates collapse into two, which is what keeps allocator and GC
// overhead flat at netgen's 10⁵–10⁶-gate scale. Three-index subslicing caps
// each view so a stray append can never bleed into a neighbor.
func (c *Circuit) compactEdges() {
	nf, no := 0, 0
	for i := range c.Gates {
		nf += len(c.Gates[i].Fanin)
		no += len(c.Gates[i].Fanout)
	}
	fa := make([]int, 0, nf)
	oa := make([]int, 0, no)
	for i := range c.Gates {
		g := &c.Gates[i]
		if len(g.Fanin) > 0 {
			start := len(fa)
			fa = append(fa, g.Fanin...)
			g.Fanin = fa[start:len(fa):len(fa)]
		}
		if len(g.Fanout) > 0 {
			start := len(oa)
			oa = append(oa, g.Fanout...)
			g.Fanout = oa[start:len(oa):len(oa)]
		}
	}
}
