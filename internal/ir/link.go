package ir

import "fmt"

// Linked is an instruction placed at a code address with its control-flow
// target resolved to an absolute instruction index.
type Linked struct {
	I   Instr
	Tgt int32 // resolved target PC for branch-like ops; -1 if none
}

// Image is a linked, executable form of a Program: a flat code array with
// resolved branch targets, a symbol table, and the initial data image. It is
// what the simulator executes — the analogue of the binary the paper's tool
// adapts.
type Image struct {
	Code  []Linked
	Entry int

	// FuncEntries maps function name to entry PC.
	FuncEntries map[string]int
	// FuncNames and FuncOf map a PC back to its containing function:
	// FuncNames[FuncOf[pc]]. Used by profiling and the call-graph capture.
	FuncNames []string
	FuncOf    []int
	// BlockStarts maps "func.label" to the block's first PC.
	BlockStarts map[string]int
	// BlockOf maps a PC to the index (within blockKeys) of its block.
	blockKeys []string
	BlockOf   []int

	// Data is the initial memory image, sealed and shared with the program
	// it was linked from.
	Data *DataImage
}

// BlockKey returns the "func.label" key of the block containing pc.
func (im *Image) BlockKey(pc int) string { return im.blockKeys[im.BlockOf[pc]] }

// NumBlocks returns the number of linked basic blocks.
func (im *Image) NumBlocks() int { return len(im.blockKeys) }

// BlockKeys returns the "func.label" keys in layout order.
func (im *Image) BlockKeys() []string { return im.blockKeys }

// Link flattens the program into an executable image, resolving all branch
// targets. Functions and blocks are laid out in declaration order — slice
// blocks appended after a function by the SSP code generator therefore land
// after the function body, matching Figure 7's layout.
func Link(p *Program) (*Image, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	im := &Image{
		FuncEntries: make(map[string]int),
		BlockStarts: make(map[string]int),
		Data:        p.sharedData(),
	}
	// First pass: assign addresses.
	pc := 0
	for fi, f := range p.Funcs {
		im.FuncNames = append(im.FuncNames, f.Name)
		im.FuncEntries[f.Name] = pc
		for _, b := range f.Blocks {
			key := f.Name + "." + b.Label
			im.BlockStarts[key] = pc
			bi := len(im.blockKeys)
			im.blockKeys = append(im.blockKeys, key)
			for range b.Instrs {
				im.FuncOf = append(im.FuncOf, fi)
				im.BlockOf = append(im.BlockOf, bi)
				pc++
			}
			// Empty blocks still need a resolvable start address; they
			// alias the next instruction but emit nothing.
		}
	}
	im.Code = make([]Linked, 0, pc)
	// Second pass: emit with resolved targets.
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				l := Linked{I: *in, Tgt: -1}
				if k := in.TargetKind(); k != NoTarget {
					t, ok := im.resolve(k, f.Name, in.Target)
					if !ok {
						return nil, fmt.Errorf("ir: %s: unresolved %s target %q", f.Name, in.Op, in.Target)
					}
					l.Tgt = int32(t)
				}
				im.Code = append(im.Code, l)
			}
		}
	}
	entry, ok := im.FuncEntries[p.Entry]
	if !ok {
		return nil, fmt.Errorf("ir: entry %q not linked", p.Entry)
	}
	im.Entry = entry
	if len(im.Code) == 0 {
		return nil, fmt.Errorf("ir: empty program")
	}
	return im, nil
}

// resolve returns the PC a target of kind k in function fn names: a local
// label, for a spawn also a "func.label" pair or a function, and for a
// function target the function's entry.
func (im *Image) resolve(k TargetKind, fn, target string) (int, bool) {
	switch k {
	case LabelTarget:
		t, ok := im.BlockStarts[fn+"."+target]
		return t, ok
	case SpawnTarget:
		if t, ok := im.BlockStarts[fn+"."+target]; ok {
			return t, true
		}
		if t, ok := im.BlockStarts[target]; ok {
			return t, true
		}
	}
	t, ok := im.FuncEntries[target]
	return t, ok
}
