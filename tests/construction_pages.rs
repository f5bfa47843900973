//! Building an LLC organization must not touch the pages of its line
//! payloads: they are allocated zeroed, so a run makes resident only the
//! pages its lines reach. An organization that writes its whole payload
//! array when it is built takes one minor fault per 4 KiB page of it
//! (512 for 2 MiB of lines) before it simulates anything.
//!
//! A binary of its own with a single test, so it runs in a fresh process
//! on a thread that has allocated nothing large yet. Every organization
//! stays alive until the end: freeing a large block raises glibc's
//! dynamic mmap threshold, and later allocations would then reuse
//! resident heap memory, which takes no new faults and hides the cost.
#![cfg(target_os = "linux")]

use base_victim::{LlcKind, SimConfig};

/// At most this many minor faults (1 MiB of 4 KiB pages) per organization.
const MAX_FAULTS: u64 = 256;

/// Minor faults taken so far by the calling thread: field 10 of
/// `/proc/thread-self/stat`, counted after the parenthesised command
/// name, which may itself hold spaces.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("readable thread stat");
    let fields = &stat[stat.rfind(')').expect("command name in parentheses") + 1..];
    fields
        .split_whitespace()
        .nth(7)
        .expect("minflt field")
        .parse()
        .expect("numeric minflt")
}

#[test]
fn building_an_organization_touches_few_pages() {
    let names: Vec<&str> = LlcKind::NAMES.split(", ").collect();
    let mut alive = Vec::with_capacity(names.len());
    let mut faults = Vec::with_capacity(names.len());
    for &name in &names {
        let kind = LlcKind::from_name(name).expect("listed name parses");
        let cfg = SimConfig::single_thread(kind);
        let before = minor_faults();
        let llc = kind.build(cfg.llc, cfg.llc_policy);
        faults.push((name, minor_faults() - before));
        alive.push(llc);
    }
    assert!(
        faults.iter().all(|&(_, f)| f < MAX_FAULTS),
        "building a 2 MiB 16-way LLC took {MAX_FAULTS} or more minor faults: {faults:?}"
    );
    drop(alive);
}
