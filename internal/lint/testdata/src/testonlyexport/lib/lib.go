// Package lib is imported by app, so its exports are judged.
package lib

import "errors"

// OnlyTested is called from lib_test.go alone.
func OnlyTested() {} // want `test-only-export: bladerunner/internal/lint/testdata/src/testonlyexport/lib.OnlyTested is exported but no non-test file calls it`

// Called is called by app.
func Called() {}

// T carries methods app reaches in different ways.
type T struct{}

// Value is used only as a method value.
func (T) Value() {}

// Fetch is never named, but T satisfies Getter, which app mentions.
func (T) Fetch() int { return 1 }

// String is never named: fmt.Stringer is its caller.
func (T) String() string { return "t" }

// Unused is reported even on a type that is used.
func (T) Unused() {} // want `test-only-export: \(bladerunner/internal/lint/testdata/src/testonlyexport/lib.T\).Unused is exported`

// Getter is the interface app mentions.
type Getter interface{ Fetch() int }

// Box is generic; app calls Get on an instantiation only.
type Box[V any] struct{ v V }

// Get is used through Box[int].
func (b *Box[V]) Get() V { return b.v }

// Put is never used.
func (b *Box[V]) Put(v V) { b.v = v } // want `test-only-export: \(\*bladerunner/internal/lint/testdata/src/testonlyexport/lib.Box\[V\]\).Put is exported`

// Ident is a generic function app instantiates.
func Ident[V any](v V) V { return v }

// Fixture is kept for tests on purpose.
//
//brlint:allow(test-only-export) a fixture the package's tests drive
func Fixture() {}

// ErrUsed is a var app reads.
var ErrUsed = errors.New("used")

// ErrTested is a var only lib_test.go reads.
var ErrTested = errors.New("tested") // want `test-only-export: bladerunner/internal/lint/testdata/src/testonlyexport/lib.ErrTested is exported but no non-test file uses it`

// Mode is a type app names.
type Mode int

// The modes: app reads ModeA, only lib_test.go reads ModeB.
const (
	ModeA Mode = iota
	ModeB      // want `test-only-export: bladerunner/internal/lint/testdata/src/testonlyexport/lib.ModeB is exported but no non-test file uses it`
)

// Options is a type only lib_test.go names.
type Options struct{ N int } // want `test-only-export: bladerunner/internal/lint/testdata/src/testonlyexport/lib.Options is exported but no non-test file uses it`

// ErrFixture is kept for tests on purpose.
//
//brlint:allow(test-only-export) a fixture the package's tests return
var ErrFixture = errors.New("fixture")
