package cppe

import (
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/policy"
	"github.com/reproductions/cppe/internal/prefetch"
)

// This file is the versioned policy plugin surface: everything an external
// package needs to implement, register, and run its own eviction policy or
// prefetcher, exported as aliases of the internal types so a registered
// implementation is indistinguishable from the in-tree ones. A custom policy
// sees the machine only through MachineView — residency and touch bit
// vectors, capacity pressure, the recent-eviction pattern window, and the
// cycle clock — never the simulator's mutable internals, so it cannot perturb
// the machine except through its eviction decisions. See DESIGN.md §13 and
// the README "writing your own policy" walkthrough; internal/policytest has
// the conformance suite a correct implementation must pass.

// PolicyAPIVersion is the policy-contract version this build implements.
// Registrations must declare it; the registry rejects every other value.
// Version 3 lends the RecentEvictions window: the slice is valid until the
// next call, so a policy copies any record it keeps past one callback.
const PolicyAPIVersion = policy.APIVersion

// Typed registration and lookup failures (errors.Is-able).
var (
	// ErrPolicyExists reports a duplicate (kind, name) registration.
	ErrPolicyExists = policy.ErrPolicyExists
	// ErrUnknownPolicy reports a lookup of an unregistered policy name. It
	// surfaces through Result.Err when a Request names an unknown policy pair.
	ErrUnknownPolicy = policy.ErrUnknownPolicy
	// ErrBadRegistration reports a structurally invalid Registration.
	ErrBadRegistration = policy.ErrBadRegistration
)

// Core simulator vocabulary, aliased for policy implementations.
type (
	// ChunkID identifies one 64 KiB migration chunk (16 pages).
	ChunkID = memdef.ChunkID
	// PageNum is a global 4 KiB page number.
	PageNum = memdef.PageNum
	// PageBitmap is one bit per page within a chunk.
	PageBitmap = memdef.PageBitmap
	// Cycle is simulated time in core clock cycles.
	Cycle = memdef.Cycle
	// SystemConfig is the Table-I machine configuration handed to factories.
	SystemConfig = memdef.Config

	// EvictionPolicy is the contract an eviction policy implements; see the
	// documentation of the aliased interface for the event-ordering contract.
	EvictionPolicy = evict.Policy
	// Prefetcher is the contract a prefetcher implements. Plan appends its
	// migration set to a driver-owned buffer and returns the extended slice;
	// see the aliased interface for the append contract.
	Prefetcher = prefetch.Prefetcher
	// PrefetchContext carries per-fault machine state into Prefetcher.Plan.
	PrefetchContext = prefetch.Context

	// MachineView is the read-only window a view-driven policy observes the
	// machine through (implement PolicyViewBinder to receive one).
	MachineView = policy.MachineView
	// PolicyViewBinder is implemented by policies that want a MachineView;
	// BindView is called once at machine construction, before any event.
	PolicyViewBinder = policy.ViewBinder
	// EvictionRecord is one entry of MachineView.RecentEvictions, whose
	// slice is the view's reused buffer, valid until the next call.
	EvictionRecord = policy.EvictionRecord

	// PolicyEnv is the construction environment handed to factories: the
	// machine configuration and the run's deterministic seed.
	PolicyEnv = policy.Env
	// PolicyRegistration declares one named, versioned policy.
	PolicyRegistration = policy.Registration
	// PolicyKind selects the registration contract.
	PolicyKind = policy.Kind
)

// Registration kinds.
const (
	KindEviction = policy.KindEviction
	KindPrefetch = policy.KindPrefetch
)

// RegisterPolicy adds a named, versioned policy to the global registry.
// Registered names become addressable from every front-end as the setup
// "<eviction>+<prefetcher>" (e.g. "mhpe+locality", or a custom name paired
// with a built-in). Duplicate names return ErrPolicyExists and malformed
// registrations ErrBadRegistration; RegisterPolicy never panics, so a broken
// plugin degrades into one structured error.
//
// Factories must be deterministic: same PolicyEnv, same decisions, and no
// state shared between instances. A parked or interrupted run is continued
// by running it again from cycle 0 with a fresh instance from the factory,
// so that is all a policy needs to be parked and continued like the
// built-ins.
func RegisterPolicy(reg PolicyRegistration) error { return policy.Register(reg) }

// EvictionPolicies returns the registered eviction-policy names, sorted.
func EvictionPolicies() []string { return policy.EvictionNames() }

// Prefetchers returns the registered prefetcher names, sorted.
func Prefetchers() []string { return policy.PrefetchNames() }

// PolicyDescription returns the one-line description a registration declared,
// or "" if the (kind, name) is unknown.
func PolicyDescription(kind PolicyKind, name string) string {
	reg, err := policy.Lookup(kind, name)
	if err != nil {
		return ""
	}
	return reg.Description
}
