package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// WallTime is the determinism check for time and randomness sources:
// inside the simulation-core packages, wall-clock reads (time.Now,
// time.Since, ...) and the global math/rand generator (rand.Intn,
// rand.Float64, ... without an explicit seeded source) are banned.
// Simulation state may only advance on virtual time and may only draw
// randomness from seeded streams — rand.New(rand.NewSource(seed)) — so a
// run is a pure function of its seed. Constructing a seeded stream is
// therefore allowed; sampling the process-global one is not.
type WallTime struct{}

// wallClockFuncs are the package-level time functions that read or depend
// on the wall clock (or schedule on it). time.Duration arithmetic and
// constants remain free.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandConstructors are the math/rand package-level functions that
// build an explicit seeded stream rather than sampling the global one.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// Name implements Check.
func (WallTime) Name() string { return "walltime" }

// Run implements Check.
func (WallTime) Run(m *Module) []Finding {
	var findings []Finding
	for _, pkg := range m.simCore() {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				// Only package-level functions: methods on *rand.Rand (a
				// seeded stream) and on time.Time values are fine.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if wallClockFuncs[fn.Name()] {
						findings = append(findings, Finding{
							Check: "walltime",
							Pos:   pkg.Fset.Position(call.Pos()),
							Msg: fmt.Sprintf("time.%s reads the wall clock: simulation state must advance on virtual time only (sim.Kernel.Now)",
								fn.Name()),
						})
					}
				case "math/rand", "math/rand/v2":
					if !seededRandConstructors[fn.Name()] {
						findings = append(findings, Finding{
							Check: "walltime",
							Pos:   pkg.Fset.Position(call.Pos()),
							Msg: fmt.Sprintf("rand.%s samples the global generator: draw from an explicit seeded stream (rand.New(rand.NewSource(seed))) so runs are a pure function of the seed",
								fn.Name()),
						})
					}
				}
				return true
			})
		}
	}
	return findings
}
