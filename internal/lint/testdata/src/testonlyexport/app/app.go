// Package app calls into lib. Nothing imports app, so its own exports are
// not judged.
package app

import "bladerunner/internal/lint/testdata/src/testonlyexport/lib"

// Run is exported and uncalled, but app is a leaf package.
func Run() int {
	lib.Called()
	f := lib.T{}.Value
	f()
	var g lib.Getter = lib.T{}
	var b lib.Box[int]
	return g.Fetch() + b.Get() + lib.Ident[int](1)
}
