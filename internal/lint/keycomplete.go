package lint

import (
	"go/ast"
	"strings"
)

// checkKeyCompleteness guards the canonical cache key against silent
// incompleteness. The service's request key is sha256 over the
// json.Marshal of the request, whose Config is the whole hayat.Config:
// every exported field of hayat.Config — and of sim.Config, whose bytes
// land in checkpoints — therefore enters the key automatically UNLESS it
// carries a `json:"-"` tag. A field that changes simulation output but
// is excluded from the key is a cache-poisoning and replica-fork bug:
// two different configs would collide on one key, and replicas would
// 409 each other's "divergent" results.
//
// The rule flags every exported `json:"-"` field of those Config
// structs. A deliberate exclusion — a field results provably never read
// — is allow-listed with the standard suppression on the line above the
// field; the reason is mandatory, so the justification lives next to the
// tag:
//
//	//lint:ignore key-completeness logging cadence only, results never read it
//	LogEvery int `json:"-"`
//
// Known approximation: the rule checks the marshalling contract, not
// the key's implementation, so it holds only while the request key
// hashes the whole marshalled config.
func checkKeyCompleteness(pkgs []*Package, r *Reporter) {
	for _, p := range pkgs {
		if !moduleRootPackage(p) && !p.PathContains("internal/sim") {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "Config" {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if jsonTagName(field) != "-" {
						continue // field enters the canonical key
					}
					for _, fname := range field.Names {
						if !fname.IsExported() {
							continue
						}
						r.Reportf(fname.Pos(),
							"exported Config field %s is excluded from the canonical cache key (json:\"-\"); a key-invisible field that changes results poisons the cache and forks replicas — include it in the key or allow-list it with //lint:ignore key-completeness <why results cannot depend on it>",
							fname.Name)
					}
				}
				return true
			})
		}
	}
}

// jsonTagName extracts the name part of a field's `json:"..."` tag, or
// "" when the field has no tag. Only the name (before the first comma)
// is returned.
func jsonTagName(field *ast.Field) string {
	if field.Tag == nil {
		return ""
	}
	// field.Tag.Value includes the surrounding backquotes.
	tag := strings.Trim(field.Tag.Value, "`")
	for tag != "" {
		// Parse one conventionally-formatted key:"value" pair.
		i := 0
		for i < len(tag) && tag[i] == ' ' {
			i++
		}
		tag = tag[i:]
		i = 0
		for i < len(tag) && tag[i] != ':' && tag[i] != ' ' {
			i++
		}
		if i == 0 || i >= len(tag) || tag[i] != ':' {
			return ""
		}
		key := tag[:i]
		tag = tag[i+1:]
		if len(tag) == 0 || tag[0] != '"' {
			return ""
		}
		end := strings.IndexByte(tag[1:], '"')
		if end < 0 {
			return ""
		}
		value := tag[1 : 1+end]
		tag = tag[end+2:]
		if key == "json" {
			if comma := strings.IndexByte(value, ','); comma >= 0 {
				value = value[:comma]
			}
			return value
		}
	}
	return ""
}
