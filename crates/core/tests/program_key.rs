//! The workload cache key, `CacheKey::of_program`: pinned against
//! accidental churn, equal for equal programs, sensitive to every kind of
//! content a program carries, and exactly as discriminating as the
//! `Debug`-rendering key it replaced.

use nimage_core::CacheKey;
use nimage_ir::{Program, ProgramBuilder, TypeRef};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

/// A key change invalidates every persisted cache entry, so it must be
/// deliberate: update this value together with `DISK_FORMAT_VERSION`.
#[test]
fn sieve_key_is_pinned() {
    let key = CacheKey::of_program(&Awfy::Sieve.program_at(&RuntimeScale::small()));
    assert_eq!(key, CacheKey(0xb266_145d_738e_c3ac, 0x351f_25b9_f5da_0b9c));
}

#[test]
fn independently_generated_programs_get_equal_keys() {
    let small = RuntimeScale::small();
    assert_eq!(
        CacheKey::of_program(&Awfy::Sieve.program_at(&small)),
        CacheKey::of_program(&Awfy::Sieve.program_at(&small))
    );
    assert_eq!(
        CacheKey::of_program(&Microservice::Micronaut.program()),
        CacheKey::of_program(&Microservice::Micronaut.program())
    );
}

/// One knob per kind of content; the default is the reference program.
#[derive(Debug, Clone, Copy, Default)]
struct Variant {
    int_literal: bool,
    string_literal: bool,
    instance_field: bool,
    resource_size: bool,
    other_entry: bool,
    swapped_branch: bool,
}

/// Turns one [`Variant`] knob away from the reference.
type Knob = fn(&mut Variant);

/// A small program whose variants differ from the reference in exactly
/// one place each.
fn program(v: Variant) -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("t.Main", None);
    // The builder files the field under the class's static or instance
    // list to match its `is_static`, so no built program differs in the
    // flag alone; no body refers to the field.
    if v.instance_field {
        pb.add_instance_field(c, "F", TypeRef::Int);
    } else {
        pb.add_static_field(c, "F", TypeRef::Int);
    }
    pb.add_resource("META-INF/r", if v.resource_size { 65 } else { 64 });

    let mut mains = Vec::new();
    for name in ["main", "main2"] {
        let m = pb.declare_static(c, name, &[], Some(TypeRef::Int));
        let mut f = pb.body(m);
        let k = f.iconst(if v.int_literal { 8 } else { 7 });
        let s = f.sconst(if v.string_literal { "b" } else { "a" });
        let n = f.str_len(s);
        let cond = f.lt(k, n);
        let (then_blk, else_blk) = (f.new_block(), f.new_block());
        if v.swapped_branch && name == "main" {
            f.br(cond, else_blk, then_blk);
        } else {
            f.br(cond, then_blk, else_blk);
        }
        f.switch_to(then_blk);
        f.ret(Some(k));
        f.switch_to(else_blk);
        f.ret(Some(n));
        pb.finish_body(m, f);
        mains.push(m);
    }
    pb.set_entry(mains[usize::from(v.other_entry)]);
    pb.build().expect("valid program")
}

#[test]
fn a_single_difference_changes_the_key() {
    let reference = CacheKey::of_program(&program(Variant::default()));
    assert_eq!(
        reference,
        CacheKey::of_program(&program(Variant::default()))
    );
    let knobs: [(&str, Knob); 6] = [
        ("int literal", |v| v.int_literal = true),
        ("string literal", |v| v.string_literal = true),
        ("field is_static", |v| v.instance_field = true),
        ("resource size", |v| v.resource_size = true),
        ("entry method", |v| v.other_entry = true),
        ("branch target", |v| v.swapped_branch = true),
    ];
    for (what, knob) in knobs {
        let mut v = Variant::default();
        knob(&mut v);
        assert_ne!(reference, CacheKey::of_program(&program(v)), "{what}");
    }
}

/// Over every bundled workload (plus a second generation of one, so the
/// relation is not trivially all-distinct), two programs share a new key
/// exactly when they share a `Debug`-rendering key (the tag salts both
/// sides of every comparison alike, so its value does not matter).
#[test]
fn new_key_separates_exactly_what_the_debug_key_separates() {
    let mut programs: Vec<Program> = Awfy::all().iter().map(Awfy::program).collect();
    programs.extend(Microservice::all().iter().map(Microservice::program));
    assert_eq!(programs.len(), 17);
    programs.push(Awfy::Sieve.program());
    let keys: Vec<(CacheKey, CacheKey)> = programs
        .iter()
        .map(|p| {
            (
                CacheKey::of_debug("debug-rendering", p),
                CacheKey::of_program(p),
            )
        })
        .collect();
    for (i, a) in keys.iter().enumerate() {
        for (j, b) in keys.iter().enumerate().skip(i + 1) {
            assert_eq!(a.0 == b.0, a.1 == b.1, "programs {i} and {j}");
        }
    }
}
