package cliflags

import (
	"flag"
	"testing"
)

// TestRegisterNamesAndDefaults pins the shared flag names and defaults
// the three tools accept, and that setting a flag reaches Knobs.
func TestRegisterNamesAndDefaults(t *testing.T) {
	f := Register("test")
	for name, def := range map[string]string{
		"tx-burst": "0", "pipeline": "0", "prefetch": "0", "no-coalesce": "false",
		"ship": "auto", "chaos": "false", "chaos-seed": "1", "metrics": "false",
		"trace-out": "", "trace-sample": "1",
	} {
		fl := flag.Lookup(name)
		if fl == nil {
			t.Errorf("-%s not registered", name)
			continue
		}
		if fl.DefValue != def {
			t.Errorf("-%s default = %q, want %q", name, fl.DefValue, def)
		}
	}
	for name, val := range map[string]string{"tx-burst": "4", "pipeline": "2", "prefetch": "-1", "no-coalesce": "true", "ship": "off"} {
		if err := flag.Set(name, val); err != nil {
			t.Fatal(err)
		}
	}
	cfg := f.Config(3)
	if cfg.Nodes != 3 || cfg.TxBurst != 4 || cfg.PipelineDepth != 2 || cfg.PrefetchAhead != -1 ||
		!cfg.DisableCoalesce || cfg.Ship != "off" {
		t.Errorf("Config(3) = %+v, want the set knobs on 3 nodes", cfg)
	}
	if cfg.Faults != nil || cfg.Tracer != nil || cfg.Model != nil {
		t.Error("no -chaos or -trace-out, yet Config built a fault plan, tracer or model")
	}
}

// TestConfigChaosAndTrace checks that -chaos and -trace-out each bring
// the virtual-time model their fault windows and spans need.
func TestConfigChaosAndTrace(t *testing.T) {
	cfg := (&Flags{Chaos: true, ChaosSeed: 7}).Config(2)
	if cfg.Faults == nil || cfg.Model == nil {
		t.Errorf("-chaos: faults %v, model %v; want both set", cfg.Faults, cfg.Model)
	}
	cfg = (&Flags{TraceOut: "t.json", TraceSample: 1}).Config(2)
	if cfg.Tracer == nil || cfg.Model == nil {
		t.Errorf("-trace-out: tracer %v, model %v; want both set", cfg.Tracer, cfg.Model)
	}
}
