package pylite

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"qfusor/internal/data"
)

// runTiers calls f(arg) on the tree-walking interpreter, the closure
// compiler and (when the body compiles) the bytecode VM, and returns
// each tier's repr or error text.
func runTiers(t *testing.T, src string, arg data.Value) (tree, closure, vm string, vmOK bool) {
	t.Helper()
	it := NewInterp()
	if err := it.Exec(src); err != nil {
		t.Fatalf("exec: %v", err)
	}
	fnv, _ := it.Global("f")
	fv := fnv.P.(*FuncValue)
	show := func(v data.Value, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return v.Repr()
	}
	tree = show(it.Call(fnv, []data.Value{arg}))
	c, err := Compile(fv)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	closure = show(c.Call(it, []data.Value{arg}, nil))
	prog, err := BCCompile(fv)
	if err != nil {
		return tree, closure, err.Error(), false
	}
	regs := make([]data.Value, prog.NumRegs)
	regs[0] = arg
	return tree, closure, show(prog.RunVM(it, regs)), true
}

// TestImportBindsSameInEveryTier: `import m` and `from m import a`
// bind exactly the names they list, in all three tiers, and a
// function-level import compiles for the VM.
func TestImportBindsSameInEveryTier(t *testing.T) {
	cases := []struct {
		name, body string
		want       string // result, or an error substring
		vm         bool   // whether BCCompile accepts the body
	}{
		{"from", "from math import log\n    return log(x)", "2.0794415416798357", true},
		{"several", "import math\n    from math import sqrt, floor\n    return math.log(x) + sqrt(x) + floor(x)", "12.907868666426026", true},
		{"plain", "import json, math\n    return json.dumps([math.floor(x)])", `"[8]"`, true},
		{"noleak", "import math\n    return sqrt(x)", "NameError", true},
		{"missingattr", "from json import nope\n    return 1", "ImportError", false},
		{"missingmodule", "import numpy\n    return 1", "ImportError", false},
	}
	for _, c := range cases {
		src := "def f(x):\n    " + c.body + "\n"
		tree, closure, vm, vmOK := runTiers(t, src, data.Float(8))
		if !strings.Contains(tree, c.want) {
			t.Errorf("%s: tree-walker = %s, want %s", c.name, tree, c.want)
		}
		if closure != tree {
			t.Errorf("%s: closure tier = %s, tree-walker = %s", c.name, closure, tree)
		}
		bothFail := strings.HasPrefix(tree, "error: ") && strings.HasPrefix(vm, "error: ")
		if vmOK != c.vm {
			t.Errorf("%s: BCCompile accepted=%v (%s), want %v", c.name, vmOK, vm, c.vm)
		} else if vmOK && vm != tree && !bothFail {
			t.Errorf("%s: vm = %s, tree-walker = %s", c.name, vm, tree)
		}
	}
}

// TestModuleLevelFromImport: a module-level `from m import a` binds a
// global the function bodies see.
func TestModuleLevelFromImport(t *testing.T) {
	it := NewInterp()
	if err := it.Exec("from json import loads\ndef f(s):\n    return loads(s)[\"a\"]\n"); err != nil {
		t.Fatal(err)
	}
	fnv, _ := it.Global("f")
	v, err := it.Call(fnv, []data.Value{data.Str(`{"a": 3}`)})
	if err != nil || v.Repr() != "3" {
		t.Fatalf("f = %v, %v", v, err)
	}
	if _, ok := it.Global("json"); ok {
		t.Fatal("from-import bound the module name")
	}
	if _, ok := it.Global("dumps"); ok {
		t.Fatal("from-import leaked an unlisted attribute")
	}
}

// TestImportReturnsSingleton: every import of a module yields the same
// immutable instance.
func TestImportReturnsSingleton(t *testing.T) {
	for name := range modules {
		a, _ := importModule(name)
		b, _ := importModule(name)
		if a.P != b.P {
			t.Errorf("%s: import built a new module", name)
		}
	}
	it := NewInterp()
	err := it.Exec("import math\nmath.pi = 3\n")
	if err == nil || !strings.Contains(err.Error(), "attribute assignment not supported") {
		t.Fatalf("module attribute assignment: err = %v", err)
	}
}

// TestModulesConcurrentUse runs many interpreters that import and call
// json, re and math at once; under -race it checks that the shared
// module singletons carry no per-call state.
func TestModulesConcurrentUse(t *testing.T) {
	const src = `
def f(i):
    import json
    import re
    from math import sqrt, floor
    d = json.loads(json.dumps({"k": i, "s": "a-b-" + str(i)}))
    parts = re.split("-", d["s"])
    m = re.match("a-(\\w)", d["s"])
    return floor(sqrt(d["k"] * d["k"])) + len(parts) + len(m.group(1))
`
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Workers rotate through the tree-walker, the closure
			// compiler and the VM.
			it := NewInterp()
			it.HotThreshold = w % 3
			if err := it.Exec(src); err != nil {
				errs <- err
				return
			}
			fnv, _ := it.Global("f")
			call := func(arg data.Value) (data.Value, error) { return it.Call(fnv, []data.Value{arg}) }
			if w%3 == 2 {
				prog, err := BCCompile(fnv.P.(*FuncValue))
				if err != nil {
					errs <- err
					return
				}
				regs := make([]data.Value, prog.NumRegs)
				call = func(arg data.Value) (data.Value, error) {
					regs[0] = arg
					return prog.RunVM(it, regs)
				}
			}
			for i := int64(0); i < 200; i++ {
				v, err := call(data.Int(i))
				if err != nil {
					errs <- err
					return
				}
				if v.I != i+4 {
					errs <- fmt.Errorf("worker %d: f(%d) = %v, want %d", w, i, v, i+4)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestJSONLoadsRejectsExtraData: like CPython, json.loads fails when
// anything but whitespace follows the value.
func TestJSONLoadsRejectsExtraData(t *testing.T) {
	it := NewInterp()
	if err := it.Exec("import json\ndef f(s):\n    return json.loads(s)\n"); err != nil {
		t.Fatal(err)
	}
	fnv, _ := it.Global("f")
	for _, s := range []string{`{"a":1} x`, `[1]]`, `1 2`} {
		_, err := it.Call(fnv, []data.Value{data.Str(s)})
		if err == nil || !strings.Contains(err.Error(), "ValueError") || !strings.Contains(err.Error(), "extra data") {
			t.Errorf("json.loads(%q): err = %v, want ValueError: invalid JSON ... extra data", s, err)
		}
	}
	v, err := it.Call(fnv, []data.Value{data.Str(" [1] \n")})
	if err != nil || v.Repr() != "[1]" {
		t.Fatalf("json.loads with trailing whitespace = %v, %v", v, err)
	}
}
