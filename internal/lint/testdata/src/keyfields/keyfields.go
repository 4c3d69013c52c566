// Fixture for the keyfields analyzer, checked against the testdata-local
// schema table in keyfields_test.go: Good matches its pinned layout,
// Drifted gained a field, Missing lost one, NotStruct is pinned as a
// struct but is not one, and the schema also pins an Absent type this
// package never declares (reported at the package clause below).
package keyfields // want `keyfields: key schema pins .*\.Absent \(hashed by fixtureKey\) but this package declares no such type`

type Good struct {
	A int
	B string
}

type Drifted struct { // want `keyfields: Drifted gained field\(s\) Extra not enumerated in the key schema`
	X     int
	Extra int
}

type Missing struct { // want `keyfields: Missing lost field "Gone", which fixtureKey was written against`
	Y int
}

type NotStruct int // want `keyfields: key schema pins NotStruct as a struct hashed by fixtureKey, but it is int`

// Reordered pins the schema's set semantics: the enumeration order in the
// schema table need not match declaration order — only membership drifts
// (gained or lost fields) are findings.
type Reordered struct {
	Earlier int
	Later   int
}

// Unexported structs resolve through the same scope lookup as exported
// ones — the production table pins the snapshot codec shape
// (compile.diskSnapshot), which is unexported.
type pinnedCodec struct {
	Blob []byte
	Ver  int
}

type driftedCodec struct { // want `keyfields: driftedCodec gained field\(s\) Extra not enumerated in the key schema`
	Blob  []byte
	Extra int
}
