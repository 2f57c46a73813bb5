// Package core re-exports the packet filter's public surface — the
// paper's primary contribution — so the repository layout mirrors the
// task structure (internal/core = the contribution, one package per
// substrate).  The implementation lives in internal/filter (the stack
// language and its evaluators) and internal/pfdev (the kernel-resident
// demultiplexing pseudodevice).
//
// Downstream code may import either this package or the two underlying
// ones; the aliases are exact.
package core

import (
	"repro/internal/filter"
	"repro/internal/pfdev"
)

// Filter-language types (see internal/filter).
type (
	Word            = filter.Word
	ValidateOptions = filter.ValidateOptions
	Op              = filter.Op
	Action          = filter.Action
	Program         = filter.Program
	Filter          = filter.Filter
	Builder         = filter.Builder
	Result          = filter.Result
	Env             = filter.Env
	Info            = filter.Info
	Prevalidated    = filter.Prevalidated
	FlatProg        = filter.FlatProg
	Table           = filter.Table
	PairPredicate   = filter.PairPredicate
	FieldTest       = filter.FieldTest
)

// Device types (see internal/pfdev).
type (
	Device  = pfdev.Device
	Port    = pfdev.Port
	Packet  = pfdev.Packet
	Options = pfdev.Options
	Status  = pfdev.Status
)

// Core constructors and entry points.
var (
	NewBuilder         = filter.NewBuilder
	NewExtendedBuilder = filter.NewExtendedBuilder
	Run                = filter.Run
	RunExt             = filter.RunExt
	Validate           = filter.Validate
	Prevalidate        = filter.Prevalidate
	Compile            = filter.Compile
	BuildTable         = filter.BuildTable
	Assemble           = filter.Assemble
	Attach             = pfdev.Attach
	Select             = pfdev.Select
	DstSocketFilter    = filter.DstSocketFilter
	Fig38PupTypeRange  = filter.Fig38PupTypeRange
	Fig39PupSocket     = filter.Fig39PupSocket
)
