package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// shape sizes one workload's generated inputs at scale 1. The sizes were
// calibrated on a 2-CPU Xeon so that every workload times well over 100 ops
// in a 16 s window (see README.md).
type shape struct {
	RefNt   int     `json:"ref_nt"`  // reference length in nucleotides
	Records int     `json:"records"` // FASTA records the reference is cut into
	Genes   int     `json:"genes"`   // planted 100-residue genes
	Lens    []int   `json:"lens"`    // query lengths in residues, cycled
	Frac    float64 `json:"frac"`    // threshold as a fraction of the max score
	Batch   int     `json:"batch"`   // queries per op
	Panel   int     `json:"panel"`   // queries generated; a run never repeats one
}

const geneResidues = 100

var shapes = map[string]shape{
	"db_scan":        {RefNt: 2 << 20, Records: 64, Genes: 128, Lens: []int{20, 40, 60, 100}, Frac: 0.85, Batch: 1, Panel: 1024},
	"db_batch":       {RefNt: 512 << 10, Records: 32, Genes: 64, Lens: []int{60}, Frac: 0.85, Batch: 16, Panel: 4096},
	"stream_ingest":  {RefNt: 4 << 20, Records: 1, Genes: 128, Lens: []int{12, 16, 20}, Frac: 0.9, Batch: 1, Panel: 1024},
	"protein_search": {RefNt: 512 << 10, Records: 1, Genes: 64, Lens: []int{60}, Batch: 1, Panel: 1024},
	"serve_mixed":    {RefNt: 1 << 20, Records: 16, Genes: 64, Lens: []int{40}, Frac: 0.85, Batch: 1, Panel: 2048},
}

// scaled shrinks a shape for the self-test; scale 1 is the benchmark.
func (s shape) scaled(scale float64) shape {
	if scale >= 1 {
		return s
	}
	// Below 64 Ki nt the facade switches to its scalar kernel, which the
	// fused batch path does not shard, so shrinking stops there.
	s.RefNt = max(64<<10, int(float64(s.RefNt)*scale))
	s.Panel = max(64, int(float64(s.Panel)*scale))
	// Keep a whole number of genes per record, each in a slot with room.
	per := max(1, min(s.Genes/s.Records, s.RefNt/(s.Records*4*3*geneResidues)))
	s.Genes = per * s.Records
	return s
}

// Query kinds. Planted queries are exact windows of a planted gene and must
// be found at their position; mutated ones carry 10% substitutions; random
// ones come from nowhere.
const (
	kindPlanted = "planted"
	kindMutated = "mutated"
	kindRandom  = "random"
)

type query struct {
	Protein string `json:"protein"`
	Kind    string `json:"kind"`
	// Pos is the planted window's global nucleotide position; Rec and Off
	// locate it in the FASTA records. All are -1 for random queries.
	Pos int `json:"pos"`
	Rec int `json:"rec"`
	Off int `json:"off"`
}

type gene struct {
	Protein string `json:"protein"`
	Pos     int    `json:"pos"`
}

// inputs is everything a workload feeds the system. It is a pure function
// of the workload, the seed and genOpts: -seed is the only source of
// randomness.
type inputs struct {
	Workload  string  `json:"workload"`
	Shape     shape   `json:"shape"`
	Letters   []byte  `json:"-"` // the reference, A/C/G/T
	Genes     []gene  `json:"genes"`
	RecStarts []int   `json:"rec_starts"`
	Queries   []query `json:"queries"`
	// Serve holds serve_mixed's traffic.
	Serve *serveInputs `json:"serve,omitempty"`
	// Digest is the SHA-256 of everything above.
	Digest string `json:"-"`
}

// aminoAcids and codons are the standard genetic code, used to plant
// genes without calling into the system under test. Serine lacks AGT and
// AGC: FabP's serine template is UCN (the paper drops AGU/AGC), and an
// exact planted window must score the maximum.
const aminoAcids = "ACDEFGHIKLMNPQRSTVWY"

var codons = map[byte][]string{
	'A': {"GCT", "GCC", "GCA", "GCG"}, 'R': {"CGT", "CGC", "CGA", "CGG", "AGA", "AGG"},
	'N': {"AAT", "AAC"}, 'D': {"GAT", "GAC"}, 'C': {"TGT", "TGC"}, 'Q': {"CAA", "CAG"},
	'E': {"GAA", "GAG"}, 'G': {"GGT", "GGC", "GGA", "GGG"}, 'H': {"CAT", "CAC"},
	'I': {"ATT", "ATC", "ATA"}, 'L': {"TTA", "TTG", "CTT", "CTC", "CTA", "CTG"},
	'K': {"AAA", "AAG"}, 'M': {"ATG"}, 'F': {"TTT", "TTC"}, 'P': {"CCT", "CCC", "CCA", "CCG"},
	'S': {"TCT", "TCC", "TCA", "TCG"}, 'T': {"ACT", "ACC", "ACA", "ACG"},
	'W': {"TGG"}, 'Y': {"TAT", "TAC"}, 'V': {"GTT", "GTC", "GTA", "GTG"},
}

func randomProtein(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = aminoAcids[rng.Intn(len(aminoAcids))]
	}
	return string(b)
}

func mutate(rng *rand.Rand, p string, rate float64) string {
	b := []byte(p)
	for i := range b {
		if rng.Float64() < rate {
			for {
				c := aminoAcids[rng.Intn(len(aminoAcids))]
				if c != b[i] {
					b[i] = c
					break
				}
			}
		}
	}
	return string(b)
}

// genOpts are the run settings the inputs depend on besides the seed.
type genOpts struct {
	// Scale shrinks the shapes (1 = the benchmark).
	Scale float64
	// Window is the measured window in seconds; serve_mixed sizes its
	// fixed-rate phases to it.
	Window float64
	// Trace selects serve_mixed's traced phase list.
	Trace bool
}

// generate builds a workload's inputs from the seed.
func generate(workload string, seed int64, o genOpts) (*inputs, error) {
	sh, ok := shapes[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	sh = sh.scaled(o.Scale)
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{Workload: workload, Shape: sh}

	in.Letters = make([]byte, sh.RefNt)
	for i := range in.Letters {
		in.Letters[i] = "ACGT"[rng.Intn(4)]
	}
	// One gene per slot, so genes never overlap; records are cut on slot
	// boundaries, so no gene straddles two records.
	slot := sh.RefNt / sh.Genes
	geneNt := 3 * geneResidues
	for g := 0; g < sh.Genes; g++ {
		p := randomProtein(rng, geneResidues)
		pos := g*slot + rng.Intn(slot-geneNt+1)
		for k := 0; k < geneResidues; k++ {
			cs := codons[p[k]]
			copy(in.Letters[pos+3*k:], cs[rng.Intn(len(cs))])
		}
		in.Genes = append(in.Genes, gene{Protein: p, Pos: pos})
	}
	perRec := sh.Genes / sh.Records
	for r := 0; r < sh.Records; r++ {
		in.RecStarts = append(in.RecStarts, r*perRec*slot)
	}

	for i := 0; i < sh.Panel; i++ {
		in.Queries = append(in.Queries, in.makeQuery(rng, i, sh.Lens[(i/4)%len(sh.Lens)]))
	}
	if workload == "serve_mixed" {
		phases := servePhases
		if o.Trace {
			phases = serveTracedPhases
		}
		in.Serve = newServeInputs(rng, in, phases, o.Window)
	}
	in.Digest = in.digest()
	return in, nil
}

// makeQuery draws query i. The kind follows a fixed cycle (half planted,
// a quarter mutated, a quarter random), so every seed has the same mix.
func (in *inputs) makeQuery(rng *rand.Rand, i, residues int) query {
	g := in.Genes[rng.Intn(len(in.Genes))]
	k := rng.Intn(geneResidues - residues + 1)
	q := query{Protein: g.Protein[k : k+residues], Kind: kindPlanted, Pos: g.Pos + 3*k}
	switch i % 4 {
	case 2:
		q.Kind = kindMutated
		q.Protein = mutate(rng, q.Protein, 0.10)
	case 3:
		return query{Protein: randomProtein(rng, residues), Kind: kindRandom, Pos: -1, Rec: -1, Off: -1}
	}
	q.Rec = sort.Search(len(in.RecStarts), func(r int) bool { return in.RecStarts[r] > q.Pos }) - 1
	q.Off = q.Pos - in.RecStarts[q.Rec]
	return q
}

func (in *inputs) digest() string {
	h := sha256.New()
	meta, _ := json.Marshal(in) // a struct of plain fields: cannot fail
	h.Write(meta)
	h.Write(in.Letters)
	return hex.EncodeToString(h.Sum(nil))
}

// recID names record r in the FASTA.
func recID(r int) string { return fmt.Sprintf("rec%03d", r) }

// fasta renders the reference as FASTA records wrapped at 60 columns.
func (in *inputs) fasta() []byte {
	var b bytes.Buffer
	for r, start := range in.RecStarts {
		end := len(in.Letters)
		if r+1 < len(in.RecStarts) {
			end = in.RecStarts[r+1]
		}
		fmt.Fprintf(&b, ">%s\n", recID(r))
		wrap(&b, in.Letters[start:end])
	}
	return b.Bytes()
}

// stream renders the reference as a bare letter stream wrapped at 60
// columns, the way sequence files are usually laid out.
func (in *inputs) stream() []byte {
	var b bytes.Buffer
	wrap(&b, in.Letters)
	return b.Bytes()
}

func wrap(b *bytes.Buffer, s []byte) {
	b.Grow(len(s) + len(s)/60 + 1)
	for i := 0; i < len(s); i += 60 {
		b.Write(s[i:min(i+60, len(s))])
		b.WriteByte('\n')
	}
}

// proteins lists the protein strings of queries [lo, hi).
func (in *inputs) proteins(lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for _, q := range in.Queries[lo:hi] {
		out = append(out, q.Protein)
	}
	return out
}

// serveInputs is serve_mixed's open-loop traffic: a Poisson arrival
// schedule per phase and the request mix.
type serveInputs struct {
	Pool     []query      `json:"pool"`
	Requests []serveReq   `json:"requests"`
	Phases   []servePhase `json:"phases"`
}

// Request kinds of serve_mixed's mix.
const (
	reqAlignPool     = "align_pool"
	reqAlignDistinct = "align_distinct"
	reqSearch        = "search"
	reqBatch         = "batch"
)

type serveReq struct {
	Kind    string  `json:"kind"`
	Queries []query `json:"queries"`
	// At is the request's due time within its phase, in seconds.
	At float64 `json:"at"`
	// Phase indexes serveInputs.Phases.
	Phase int `json:"phase"`
}

// byPhase groups the requests by phase.
func (s *serveInputs) byPhase() [][]*serveReq {
	out := make([][]*serveReq, len(s.Phases))
	for i := range s.Requests {
		r := &s.Requests[i]
		out[r.Phase] = append(out[r.Phase], r)
	}
	return out
}

type servePhase struct {
	Name string  `json:"name"`
	Rate float64 `json:"rate"` // requests per second
	// Frac is the phase's share of the measured window; the warm-up has its
	// own fixed length.
	Frac float64 `json:"frac"`
}

// Phases of serve_mixed: a warm-up, then a ladder of fixed rates. The
// latency and success metrics come from the 20 req/s step, which gets the
// largest share so that it times well over 100 requests.
var servePhases = []servePhase{
	{"warmup", 20, 0},
	{"rate10", 10, 0.2},
	{"rate20", 20, 0.6},
	{"rate30", 30, 0.2},
}

// serveTracedPhases are the traced run's: 20 req/s traffic in which every
// other request is traced, so traced and untraced requests meet the same
// server and cache state.
var serveTracedPhases = []servePhase{
	{"warmup", 20, 0},
	{"rate20", 20, 1},
}

// serveWarmup is the length of the discarded warm-up phase in seconds.
const serveWarmup = 2.0

// servePoolSize is the number of distinct queries the repeated /align
// requests draw from, so repeats hit the result cache.
const servePoolSize = 32

func newServeInputs(rng *rand.Rand, in *inputs, phases []servePhase, window float64) *serveInputs {
	s := &serveInputs{Phases: phases}
	next := 0 // next unused panel query
	take := func() query {
		q := in.Queries[next%len(in.Queries)]
		next++
		return q
	}
	for i := 0; i < servePoolSize; i++ {
		s.Pool = append(s.Pool, take())
	}
	// Each block of 20 requests holds exactly the mix: 8 pool /align, 7
	// distinct /align, 3 /search, 2 /align/batch with K=4. (With half the
	// requests cache hits, the median would sit on the cliff between ~1 ms
	// hits and ~20 ms scans and jump between runs.)
	var block []string
	for _, part := range []struct {
		kind string
		n    int
	}{{reqAlignPool, 8}, {reqAlignDistinct, 7}, {reqSearch, 3}, {reqBatch, 2}} {
		for j := 0; j < part.n; j++ {
			block = append(block, part.kind)
		}
	}
	for p, ph := range s.Phases {
		// A fixed count of whole blocks per phase: rate × the phase's share
		// of the window. Arrival times are Poisson at the phase's rate
		// conditioned on that count — sorted uniform points over the
		// phase — so a phase's length does not vary from seed to seed.
		d := ph.Frac * window
		if ph.Frac == 0 {
			d = min(serveWarmup, window)
		}
		n := len(block) * int(math.Round(ph.Rate*d/float64(len(block))))
		if n == 0 { // a phase shorter than one block (the self-test)
			n = max(1, int(math.Round(ph.Rate*d)))
		}
		d = float64(n) / ph.Rate
		at := make([]float64, n)
		for j := range at {
			at[j] = rng.Float64() * d
		}
		sort.Float64s(at)
		var pending []string
		for j := 0; j < n; j++ {
			if len(pending) == 0 {
				pending = append(pending, block...)
				rng.Shuffle(len(pending), func(a, b int) { pending[a], pending[b] = pending[b], pending[a] })
			}
			kind := pending[0]
			pending = pending[1:]
			r := serveReq{Kind: kind, At: at[j], Phase: p}
			switch kind {
			case reqAlignPool:
				r.Queries = []query{s.Pool[rng.Intn(len(s.Pool))]}
			case reqBatch:
				r.Queries = []query{take(), take(), take(), take()}
			default:
				r.Queries = []query{take()}
			}
			s.Requests = append(s.Requests, r)
		}
	}
	return s
}
