package lint

import (
	"go/types"
	"sort"
	"strings"
)

// KeyFieldsAnalyzer verifies, in the package that declares each hashed
// struct, that its field set exactly matches the key schema table
// (keyschema.go). Adding a field to smt.Config, topology.Device,
// phys.System, mapping.Options, circuit.Gate, ... without folding it into
// the corresponding key function would silently alias cache entries
// across configurations that differ only in that field; this analyzer
// turns that mistake into a vet failure, before the reflection guard in
// compile/key_test.go ever runs.
var KeyFieldsAnalyzer = MakeKeyFieldsAnalyzer(DefaultKeySchema)

// MakeKeyFieldsAnalyzer builds a keyfields analyzer over an explicit
// schema table; the fixture tests use it with a testdata-local table.
func MakeKeyFieldsAnalyzer(schema map[string]KeySchema) *Analyzer {
	a := &Analyzer{
		Name: "keyfields",
		Doc: "structs hashed into compile cache keys must match the key " +
			"schema table exactly (the compile-time twin of TestKeySchemaDrift)",
	}
	a.Run = func(pass *Pass) { runKeyFields(pass, schema) }
	return a
}

func runKeyFields(pass *Pass, schema map[string]KeySchema) {
	prefix := pass.Pkg.Path() + "."
	names := make([]string, 0, len(schema))
	for qual := range schema {
		if strings.HasPrefix(qual, prefix) {
			names = append(names, strings.TrimPrefix(qual, prefix))
		}
	}
	sort.Strings(names)
	for _, name := range names {
		ks := schema[prefix+name]
		obj := pass.Pkg.Scope().Lookup(name)
		if obj == nil {
			pass.Reportf(pass.Files[0].Package,
				"key schema pins %s%s (hashed by %s) but this package declares no such type; update internal/lint/keyschema.go",
				prefix, name, ks.KeyFunc)
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			pass.Reportf(obj.Pos(),
				"key schema pins %s as a struct hashed by %s, but it is %s; update internal/lint/keyschema.go",
				name, ks.KeyFunc, obj.Type().Underlying())
			continue
		}
		got := map[string]bool{}
		for i := 0; i < st.NumFields(); i++ {
			got[st.Field(i).Name()] = true
		}
		want := map[string]bool{}
		for _, f := range ks.Fields {
			want[f] = true
		}
		var extra, missing []string
		for f := range got {
			if !want[f] {
				extra = append(extra, f)
			}
		}
		for f := range want {
			if !got[f] {
				missing = append(missing, f)
			}
		}
		sort.Strings(extra)
		sort.Strings(missing)
		for _, f := range missing {
			pass.Reportf(obj.Pos(),
				"%s lost field %s, which %s was written against; update the key, the schema table (internal/lint/keyschema.go), the reflection guard (compile/key_test.go) and bump compile.SnapshotVersion",
				name, quote(f), ks.KeyFunc)
		}
		if len(extra) > 0 {
			pass.Reportf(obj.Pos(),
				"%s gained field(s) %s not enumerated in the key schema; fold them into %s (or document their exclusion), update internal/lint/keyschema.go and compile/key_test.go, and bump compile.SnapshotVersion",
				name, strings.Join(extra, ", "), ks.KeyFunc)
		}
	}
}
