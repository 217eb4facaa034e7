package ir

import "fmt"

// Block is a basic block: a labelled, straight-line instruction sequence.
// Control may enter only at the top. A block ends either with a terminating
// branch (OpBr with an always-true predicate, OpRet, OpHalt, OpKill) or
// falls through to the next block in the function; a predicated OpBr as the
// last instruction yields two successors (taken target and fallthrough).
// Calls and chk.c may appear mid-block: a call returns to the next
// instruction and chk.c's stub detour is a micro-architectural event, not a
// CFG edge.
type Block struct {
	Label  string
	Instrs []*Instr

	// Index is the block's position within its function, maintained by
	// Func.Renumber and used as the node id by CFG analyses.
	Index int
}

// Append adds instructions to the end of the block.
func (b *Block) Append(ins ...*Instr) { b.Instrs = append(b.Instrs, ins...) }

// InsertAt inserts ins before position pos in the block.
func (b *Block) InsertAt(pos int, ins *Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[pos+1:], b.Instrs[pos:])
	b.Instrs[pos] = ins
}

// Terminator returns the final instruction of the block, or nil if empty.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return b.Instrs[len(b.Instrs)-1]
}

// endsFlow reports whether the block's last instruction unconditionally
// leaves the block (no fallthrough edge).
func (b *Block) endsFlow() bool {
	t := b.Terminator()
	if t == nil {
		return false
	}
	return t.Op.EndsBlock() && t.Qp == PTrue
}

// Func is a procedure: an ordered list of basic blocks, entered at the first
// block. Block labels are unique within the function.
type Func struct {
	Name   string
	Blocks []*Block

	// NumFormals is the number of incoming argument registers
	// (r32..r32+NumFormals-1) the function reads, used by the
	// context-sensitive slicer to bind formals to actuals (§3.1).
	NumFormals int
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// BlockByLabel returns the block with the given label, or nil.
func (f *Func) BlockByLabel(label string) *Block {
	for _, b := range f.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}

// Renumber refreshes Block.Index after structural edits.
func (f *Func) Renumber() {
	for i, b := range f.Blocks {
		// Store only what changed: renumbering an already numbered
		// function writes nothing, so analyses that renumber (cfg.Build)
		// may share one numbered program across goroutines.
		if b.Index != i {
			b.Index = i
		}
	}
}

// AddBlock appends a new empty block with the given label.
func (f *Func) AddBlock(label string) *Block {
	b := &Block{Label: label, Index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Instrs calls fn for every instruction in the function, in layout order.
func (f *Func) Instrs(fn func(*Block, int, *Instr)) {
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			fn(b, i, in)
		}
	}
}

// Program is a complete translation unit: an ordered set of functions plus a
// static data image. The function named Entry is where execution begins.
type Program struct {
	Funcs []*Func
	Entry string

	// Data is the static data image. Write it with SetWord; clones and
	// linked images share it by pointer (see DataImage).
	Data *DataImage

	nextID int
}

// NewProgram returns an empty program whose entry point is the given
// function name.
func NewProgram(entry string) *Program {
	return &Program{Entry: entry, nextID: 1}
}

// NewID allocates a fresh, program-unique instruction ID.
func (p *Program) NewID() int {
	id := p.nextID
	p.nextID++
	return id
}

// ReserveIDs ensures future NewID results are strictly greater than max.
// Callers that import instructions with pre-assigned IDs (e.g. the binary
// lifter) use it to keep the ID space collision-free.
func (p *Program) ReserveIDs(max int) {
	if p.nextID <= max {
		p.nextID = max + 1
	}
}

// Assign gives the instruction a fresh ID if it does not have one, and
// returns it.
func (p *Program) Assign(in *Instr) *Instr {
	if in.ID == 0 {
		in.ID = p.NewID()
	}
	return in
}

// AddFunc appends a new empty function.
func (p *Program) AddFunc(name string) *Func {
	f := &Func{Name: name}
	p.Funcs = append(p.Funcs, f)
	return f
}

// FuncByName returns the named function, or nil.
func (p *Program) FuncByName(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// EntryFunc returns the program's entry function, or nil.
func (p *Program) EntryFunc() *Func { return p.FuncByName(p.Entry) }

// InstrByID returns the instruction with the given ID along with its
// function and block, or nils if absent.
func (p *Program) InstrByID(id int) (*Func, *Block, *Instr) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.ID == id {
					return f, b, in
				}
			}
		}
	}
	return nil, nil, nil
}

// NumInstrs returns the static instruction count of the program.
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// Clone returns a deep copy of the program's code that shares its sealed
// data image. Instruction IDs are preserved, so profiles collected against
// the original remain valid for the clone; this is how the post-pass tool
// adapts a binary without touching the original (Figure 1's two-pass flow).
func (p *Program) Clone() *Program {
	q := &Program{Entry: p.Entry, Data: p.sharedData(), nextID: p.nextID}
	for _, f := range p.Funcs {
		nf := q.AddFunc(f.Name)
		nf.NumFormals = f.NumFormals
		for _, b := range f.Blocks {
			nb := nf.AddBlock(b.Label)
			nb.Instrs = make([]*Instr, len(b.Instrs))
			for i, in := range b.Instrs {
				nb.Instrs[i] = in.Clone()
			}
		}
		nf.Renumber()
	}
	return q
}

// Validate checks structural invariants: unique function names, unique block
// labels per function, resolvable branch targets, non-empty entry, and ID
// uniqueness. It returns the first violation found.
func (p *Program) Validate() error {
	if p.EntryFunc() == nil {
		return fmt.Errorf("ir: entry function %q not defined", p.Entry)
	}
	seenFunc := map[string]bool{}
	seenID := map[int]string{}
	for _, f := range p.Funcs {
		if seenFunc[f.Name] {
			return fmt.Errorf("ir: duplicate function %q", f.Name)
		}
		seenFunc[f.Name] = true
		if len(f.Blocks) == 0 {
			return fmt.Errorf("ir: function %q has no blocks", f.Name)
		}
		seenBlock := map[string]bool{}
		for _, b := range f.Blocks {
			if seenBlock[b.Label] {
				return fmt.Errorf("ir: %s: duplicate block label %q", f.Name, b.Label)
			}
			seenBlock[b.Label] = true
		}
		var err error
		f.Instrs(func(b *Block, _ int, in *Instr) {
			if err != nil {
				return
			}
			if in.ID != 0 {
				if prev, dup := seenID[in.ID]; dup {
					err = fmt.Errorf("ir: duplicate instruction ID %d in %s and %s", in.ID, prev, f.Name)
					return
				}
				seenID[in.ID] = f.Name
			}
			ok := true
			switch in.TargetKind() {
			case LabelTarget:
				ok = f.BlockByLabel(in.Target) != nil
			case SpawnTarget:
				ok = p.resolvable(f, in.Target)
			case FuncTarget:
				ok = p.FuncByName(in.Target) != nil
			}
			if !ok {
				err = fmt.Errorf("ir: %s/%s: %s target %q not found", f.Name, b.Label, in.Op, in.Target)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// resolvable reports whether target names a block label in f, a "func.label"
// pair, or a function name.
func (p *Program) resolvable(f *Func, target string) bool {
	if f.BlockByLabel(target) != nil || p.FuncByName(target) != nil {
		return true
	}
	for i := 0; i < len(target); i++ {
		if target[i] == '.' {
			if g := p.FuncByName(target[:i]); g != nil {
				return g.BlockByLabel(target[i+1:]) != nil
			}
		}
	}
	return false
}
