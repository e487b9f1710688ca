package main

import (
	"fmt"
	"reflect"
	"sort"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/core"
	"spaceodyssey/internal/simdisk"
)

// fields names struct fields and the values to give them. Presets are
// written as field names, not struct literals, so that this frozen
// benchmark still compiles and runs on a commit that deletes a mode switch:
// a name the struct no longer has is reported, not a build error.
type fields map[string]any

// preset is one configuration of the serving stack. modes are the switches
// that exist under the same name in both odyssey.Options and core.Config;
// explorerOnly exist only in Options (the instrumented stack, which has no
// Explorer, carries them out itself).
type preset struct {
	name         string
	modes        fields
	explorerOnly fields
}

// The two presets of the benchmark. paper is the 1x1 serial configuration
// ROADMAP pins bit-for-bit: zero Options plus the paper's cold-cache
// methodology. serving is every serving mode the stack grew, with the
// dispatcher's admission control and micro-batcher left at their zero
// values (the batcher's timer floor is one 1 ms tick on this sandbox, far
// above the 15 µs service time; see README).
var (
	paperPreset = preset{
		name:         "paper",
		explorerOnly: fields{"DropCachesPerQuery": true},
	}
	servingPreset = preset{
		name: "serving",
		modes: fields{
			"AsyncMaintenance": true,
			"ShareScans":       true,
			"CacheResults":     true,
			"AdaptiveCache":    true,
			"HeatHalfLife":     64,
		},
	}
)

// common is the storage every workload runs on: the reduced-scale cost
// model, one device with one channel, a 1024-page buffer cache, and no
// wall-clock emulation.
var common = fields{
	"Cost":          simdisk.ReducedScaleCostModel(),
	"CachePages":    cachePages,
	"Devices":       1,
	"Channels":      1,
	"RealTimeScale": 0.0,
}

const cachePages = 1024

// setFields assigns each named field of the struct dst points to and returns
// the names dst does not have (or cannot take the value), sorted.
func setFields(dst any, fs fields) []string {
	v := reflect.ValueOf(dst).Elem()
	var missing []string
	for name, val := range fs {
		f := v.FieldByName(name)
		rv := reflect.ValueOf(val)
		switch {
		case !f.IsValid() || !f.CanSet():
			missing = append(missing, name)
		case rv.Type().AssignableTo(f.Type()):
			f.Set(rv)
		case rv.Type().ConvertibleTo(f.Type()):
			f.Set(rv.Convert(f.Type()))
		default:
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing
}

// options builds the Explorer options of the preset.
func (p preset) options() (odyssey.Options, []string) {
	var o odyssey.Options
	missing := setFields(&o, common)
	missing = append(missing, setFields(&o, p.modes)...)
	missing = append(missing, setFields(&o, p.explorerOnly)...)
	return o, qualify("Options", missing)
}

// engineConfig builds the core.Config the Explorer would derive from the
// preset's options: the paper defaults plus the preset's mode switches.
func (p preset) engineConfig() (core.Config, []string) {
	cfg := core.DefaultConfig()
	return cfg, qualify("core.Config", setFields(&cfg, p.modes))
}

func (p preset) dropCachesPerQuery() bool {
	v, _ := p.explorerOnly["DropCachesPerQuery"].(bool)
	return v
}

func (p preset) asyncMaintenance() bool {
	v, _ := p.modes["AsyncMaintenance"].(bool)
	return v
}

func qualify(typ string, names []string) []string {
	for i, n := range names {
		names[i] = fmt.Sprintf("%s.%s", typ, n)
	}
	return names
}
