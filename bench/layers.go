package main

// layers.go rebuilds each library op from the exported functions of the
// layers it passes through, wrapping every call in a span. It is the only
// benchmark file that imports fabp/internal/...; internal/core appears
// only for its hit type and threshold rule, never as timed work.
//
// Span names and what Work/Aux count:
//
//	decode          bio.AppendNucASCII: bytes in / nucleotides out
//	pack            bitpar.PlaneBuilder.Append or db planes: nucleotides
//	pack.carry      bitpar.PlaneBuilder.Carry: nucleotides kept
//	kernel          one shard of Kernel or BatchKernel.AlignPlanesRange:
//	                cells (window starts × query elements) / computed
//	                reference bytes (2 bits per nucleotide read)
//	sched.plan      sched.Plan or PlanRange: shards
//	sched.gather    sched.GatherCtx or GatherBatchCtx: shards / workers
//	attr            db.Database.Attribute: hits in / hits kept
//	spine.compile   threshold and kernel compilation for the request
//	stream.read     one read of the letter stream: bytes
//	stream.chunk    the kernel work of one packed chunk
//	build           FASTA bytes to a database with packed planes: nt
//	                (children build.fasta, build.index, pack)
//	load            a v2 file to a database: bytes (children load.read,
//	                load.planes)
//	tblastn.*       translate (nt), index (entries), scan (extensions /
//	                HSPs)

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"fabp"
	"fabp/internal/bio"
	"fabp/internal/bitpar"
	"fabp/internal/core"
	"fabp/internal/db"
	"fabp/internal/isa"
	"fabp/internal/sched"
	"fabp/internal/tblastn"
	"fabp/internal/telemetry"
)

// streamChunkLetters matches the facade's streaming read size.
const streamChunkLetters = 1 << 20

// layerSys is a workload's state for the compositions.
type layerSys struct {
	in     *inputs
	d      *db.Database
	planes *bitpar.Planes
	seq    bio.NucSeq
	stream []byte
	progs  []isa.Program
	prots  []bio.ProtSeq
}

// newLayerSys encodes the query panel and sets the workload's target up
// under a "setup" root, as its untraced set-up does: a build from FASTA for
// db_scan; a load of v2 bytes for db_batch, and for serve_mixed, whose
// server loads the same file; for protein_search, a decode of the
// reference and one six-frame translation, the step every search starts
// with. stream_ingest reads its letter stream in each op.
func newLayerSys(tr *tracer, in *inputs) (*layerSys, error) {
	ls := &layerSys{in: in}
	for _, q := range in.Queries {
		p, err := bio.ParseProtSeq(q.Protein)
		if err != nil {
			return nil, err
		}
		prog, err := isa.EncodeProtein(p)
		if err != nil {
			return nil, err
		}
		ls.prots, ls.progs = append(ls.prots, p), append(ls.progs, prog)
	}
	root := tr.root("setup", 0)
	defer root.end(0, 0)
	var err error
	switch in.Workload {
	case "db_scan":
		ls.d, err = buildDB(root, in.fasta())
	case "db_batch", "serve_mixed":
		var d0 *db.Database
		if d0, err = buildDB(spanCtx{}, in.fasta()); err != nil {
			return nil, err
		}
		var v2 bytes.Buffer
		if _, err := d0.WriteTo(&v2); err != nil {
			return nil, err
		}
		ls.d, err = loadDB(root, v2.Bytes())
	case "stream_ingest":
		ls.stream = in.stream()
	case "protein_search":
		sp := root.child("decode")
		ls.seq, _, err = bio.AppendNucASCII(nil, in.Letters)
		sp.end(int64(len(in.Letters)), int64(len(ls.seq)))
		if err == nil {
			ls.translate(root)
		}
	}
	if err != nil {
		return nil, err
	}
	if ls.d != nil {
		ls.planes = ls.d.EnsurePlanes()
	}
	return ls, nil
}

// buildDB is fabp.BuildDatabase followed by WarmPlanes.
func buildDB(sp spanCtx, fasta []byte) (*db.Database, error) {
	b := sp.child("build")
	f := b.child("build.fasta")
	recs, err := bio.NewFastaReader(bytes.NewReader(fasta)).ReadAll()
	f.end(int64(len(fasta)), int64(len(recs)))
	if err != nil {
		return nil, err
	}
	x := b.child("build.index")
	d, err := db.Build(recs)
	if err != nil {
		return nil, err
	}
	x.end(int64(d.Len()), 0)
	p := b.child("pack")
	d.EnsurePlanes()
	p.end(int64(d.Len()), 0)
	b.end(int64(d.Len()), 0)
	return d, nil
}

// loadDB is fabp.LoadDatabase of a v2 file followed by WarmPlanes, which
// finds the persisted planes.
func loadDB(sp spanCtx, v2 []byte) (*db.Database, error) {
	l := sp.child("load")
	r := l.child("load.read")
	d, err := db.Read(bytes.NewReader(v2))
	r.end(int64(len(v2)), 0)
	if err != nil {
		return nil, err
	}
	p := l.child("load.planes")
	if d.PersistedPlanes() == nil {
		return nil, fmt.Errorf("v2 file carried no planes")
	}
	p.end(0, 0)
	l.end(int64(len(v2)), 0)
	return d, nil
}

func threshold(frac float64, prog isa.Program) (int, error) {
	return core.ThresholdFromFraction(frac, len(prog))
}

// kernelRange scans window starts [lo, hi) of one shard.
func kernelRange(parent spanCtx, k *bitpar.Kernel, pp *bitpar.Planes, lo, hi int) []bitpar.Hit {
	s := parent.child("kernel")
	hits := k.AlignPlanesRange(pp, lo, hi)
	m := k.QueryElems()
	s.end(int64(hi-lo)*int64(m), int64(hi-lo+m-1)/4)
	return hits
}

func bitparToCore(raw []bitpar.Hit) []core.Hit {
	out := make([]core.Hit, len(raw))
	for i, h := range raw {
		out[i] = core.Hit{Pos: h.Pos, Score: h.Score}
	}
	return out
}

func recordHits(in []db.RecordHit) []fabp.RecordHit {
	out := make([]fabp.RecordHit, len(in))
	for i, h := range in {
		out[i] = fabp.RecordHit{RecordID: h.RecordID, RecordIndex: h.RecordIndex, Offset: h.Offset, Score: h.Score}
	}
	return out
}

// attribute maps one query's hits onto records.
func attribute(sp spanCtx, d *db.Database, raw []bitpar.Hit, elems int) []fabp.RecordHit {
	a := sp.child("attr")
	out := d.Attribute(bitparToCore(raw), elems)
	a.end(int64(len(raw)), int64(len(out)))
	return recordHits(out)
}

// scanOp is fabp.Scan of one query against a database: compile, plan the
// shards, gather them on the pool, attribute the hits.
func (ls *layerSys) scanOp(ctx context.Context, sp spanCtx, pool *sched.Pool, prog isa.Program, frac float64) ([]fabp.RecordHit, error) {
	c := sp.child("spine.compile")
	th, err := threshold(frac, prog)
	var k *bitpar.Kernel
	if err == nil {
		k, err = bitpar.NewKernel(prog, th)
	}
	c.end(int64(len(prog)), 0)
	if err != nil {
		return nil, err
	}
	var raw []bitpar.Hit
	if starts := ls.d.Len() - len(prog) + 1; starts > 0 {
		p := sp.child("sched.plan")
		shards := sched.Plan(starts, 0)
		p.end(int64(len(shards)), 0)
		g := sp.child("sched.gather")
		raw, err = sched.GatherCtx(ctx, pool, len(shards), func(i int) []bitpar.Hit {
			return kernelRange(g, k, ls.planes, shards[i].Lo, shards[i].Hi)
		})
		g.end(int64(len(shards)), int64(pool.Workers()))
		if err != nil {
			return nil, err
		}
	}
	return attribute(sp, ls.d, raw, len(prog)), nil
}

// batchOp is fabp.AlignDatabaseBatch: one fused BatchKernel pass per
// shard for every query, then per-query attribution.
func (ls *layerSys) batchOp(ctx context.Context, sp spanCtx, pool *sched.Pool, progs []isa.Program, frac float64) ([][]fabp.RecordHit, error) {
	c := sp.child("spine.compile")
	ths := make([]int, len(progs))
	var err error
	for i, p := range progs {
		if ths[i], err = threshold(frac, p); err != nil {
			break
		}
	}
	var bk *bitpar.BatchKernel
	if err == nil {
		bk, err = bitpar.NewBatchKernel(progs, ths)
	}
	c.end(int64(len(progs)), 0)
	if err != nil {
		return nil, err
	}
	n := ls.planes.Len()
	p := sp.child("sched.plan")
	shards := sched.Plan(bk.Starts(n), 0)
	p.end(int64(len(shards)), 0)
	g := sp.child("sched.gather")
	perQuery, err := sched.GatherBatchCtx(ctx, pool, len(shards), len(progs), func(i int) [][]bitpar.Hit {
		lo, hi := shards[i].Lo, shards[i].Hi
		s := g.child("kernel")
		dst := bk.AlignPlanesRange(ls.planes, lo, hi, nil)
		cells := int64(0)
		for _, prog := range progs {
			m := len(prog)
			cells += int64(max(0, min(hi, n-m+1)-lo)) * int64(m)
		}
		s.end(cells, int64(hi-lo+bk.MaxElems()-1)/4)
		return dst
	})
	g.end(int64(len(shards)), int64(pool.Workers()))
	if err != nil {
		return nil, err
	}
	out := make([][]fabp.RecordHit, len(progs))
	for i, hits := range perQuery {
		out[i] = attribute(sp, ls.d, hits, len(progs[i]))
	}
	return out, nil
}

// streamOp is fabp.Aligner.AlignStream: read the letter stream in chunks,
// decode and pack each once, scan its fresh windows (sharded when the
// chunk spans more than one shard) and carry the overlap forward.
func (ls *layerSys) streamOp(ctx context.Context, sp spanCtx, pool *sched.Pool, prog isa.Program, frac float64) ([]fabp.Hit, error) {
	c := sp.child("spine.compile")
	th, err := threshold(frac, prog)
	var k *bitpar.Kernel
	if err == nil {
		k, err = bitpar.NewKernel(prog, th)
	}
	c.end(int64(len(prog)), 0)
	if err != nil {
		return nil, err
	}
	m := len(prog)
	chunk := max(streamChunkLetters, m+2)
	bld := bitpar.GetPlaneBuilder()
	defer bld.Release()
	r := bytes.NewReader(ls.stream)
	buf := make([]byte, chunk)
	dec := make(bio.NucSeq, 0, chunk)
	base, skip := 0, 0
	var out []fabp.Hit
	flush := func(final bool) error {
		n := bld.Len() - (m - 1)
		if final {
			n = bld.Len() - m + 1
		}
		if n <= skip {
			return nil
		}
		ch := sp.child("stream.chunk")
		hits, err := chunkHits(ctx, ch, pool, k, bld.Planes(), skip, n)
		ch.end(int64(n-skip), 0)
		for _, h := range hits {
			out = append(out, fabp.Hit{Pos: base + h.Pos, Score: h.Score})
		}
		return err
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rd := sp.child("stream.read")
		nRead, readErr := r.Read(buf)
		rd.end(int64(nRead), 0)
		dc := sp.child("decode")
		var perr error
		dec, _, perr = bio.AppendNucASCII(dec[:0], buf[:nRead])
		dc.end(int64(nRead), int64(len(dec)))
		if perr != nil {
			return nil, perr
		}
		if len(dec) > 0 {
			pk := sp.child("pack")
			bld.Append(dec)
			pk.end(int64(len(dec)), 0)
		}
		if bld.Len() >= chunk {
			if err := flush(false); err != nil {
				return nil, err
			}
			cy := sp.child("pack.carry")
			keep := min(m+1, bld.Len())
			base += bld.Len() - keep
			bld.Carry(keep)
			skip = keep - (m - 1)
			cy.end(int64(keep), 0)
		}
		if readErr == io.EOF {
			return out, flush(true)
		}
		if readErr != nil {
			return nil, readErr
		}
	}
}

// chunkHits scans one packed chunk's fresh windows: inline when they fit
// one shard, as the facade does, otherwise sharded on the pool.
func chunkHits(ctx context.Context, sp spanCtx, pool *sched.Pool, k *bitpar.Kernel, pp *bitpar.Planes, lo, hi int) ([]bitpar.Hit, error) {
	if hi <= lo&^63+sched.DefaultShardLen {
		return kernelRange(sp, k, pp, lo, hi), nil
	}
	p := sp.child("sched.plan")
	shards := sched.PlanRange(lo, hi, 0)
	p.end(int64(len(shards)), 0)
	g := sp.child("sched.gather")
	hits, err := sched.GatherCtx(ctx, pool, len(shards), func(i int) []bitpar.Hit {
		return kernelRange(g, k, pp, shards[i].Lo, shards[i].Hi)
	})
	g.end(int64(len(shards)), int64(pool.Workers()))
	return hits, err
}

// searchOp is fabp.Scan with ProteinSearch{TwoHit: true, Threads}: build
// the query's neighbourhood index, then translate and scan.
func (ls *layerSys) searchOp(ctx context.Context, sp spanCtx, q bio.ProtSeq, threads int) ([]wireHSP, tblastn.Stats, error) {
	o, err := tblastn.Options{TwoHit: true, Threads: threads}.Resolve()
	if err != nil {
		return nil, tblastn.Stats{}, err
	}
	ix := sp.child("tblastn.index")
	idx, err := tblastn.BuildIndex(q, o.NeighborThreshold)
	if err != nil {
		return nil, tblastn.Stats{}, err
	}
	ix.end(int64(idx.Entries()), 0)
	sc := sp.child("tblastn.scan")
	hsps, st, err := tblastn.SearchWithIndexContext(ctx, idx, ls.seq, o)
	sc.end(int64(st.Extensions), int64(st.HSPs))
	if err != nil {
		return nil, st, err
	}
	out := make([]wireHSP, len(hsps))
	for i, h := range hsps {
		out[i] = wireHSP{Frame: h.Frame.String(), QStart: h.QStart, QEnd: h.QEnd, SStart: h.SStart, SEnd: h.SEnd,
			NucPos: h.NucPos, Score: h.Score, BitScore: h.BitScore, EValue: h.EValue}
	}
	return out, st, nil
}

// translate times the six-frame translation the scan phase starts with.
func (ls *layerSys) translate(sp spanCtx) {
	t := sp.child("tblastn.translate")
	tblastn.Translate6(ls.seq)
	t.end(int64(len(ls.seq)), 0)
}

// op runs the workload's op i as a composition on the given pool; threads
// is the protein search's worker count.
func (ls *layerSys) op(ctx context.Context, sp spanCtx, pool *sched.Pool, threads, i int) (any, error) {
	sh := ls.in.Shape
	switch ls.in.Workload {
	case "db_scan":
		return ls.scanOp(ctx, sp, pool, ls.progs[i], sh.Frac)
	case "db_batch":
		return ls.batchOp(ctx, sp, pool, ls.progs[i*sh.Batch:(i+1)*sh.Batch], sh.Frac)
	case "stream_ingest":
		return ls.streamOp(ctx, sp, pool, ls.progs[i], sh.Frac)
	case "protein_search":
		hsps, _, err := ls.searchOp(ctx, sp, ls.prots[i], threads)
		return hsps, err
	}
	return nil, fmt.Errorf("%s has no library op", ls.in.Workload)
}

// newPool returns a scheduler pool of the given size; the traced run's
// single-threaded baseline uses one worker.
func newPool(workers int) *sched.Pool {
	if workers <= 0 {
		return sched.Shared()
	}
	return sched.NewPool(workers)
}

// speculation reads the protein search's extension counters: speculative
// extensions computed by shards, and the extensions the merge kept.
func speculation() (speculative, extensions, wordHits uint64) {
	reg := telemetry.Default()
	return reg.Counter("tblastn.extensions.speculative").Load(),
		reg.Counter("tblastn.extensions").Load(),
		reg.Counter("tblastn.word.hits").Load()
}
