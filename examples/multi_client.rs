//! Multi-client sharing (paper §III-D): two devices editing one folder,
//! with cloud-side forwarding and first-write-wins conflict handling.
//!
//! ```text
//! cargo run --example multi_client
//! ```

use deltacfs::core::{DeltaCfsConfig, SyncHub};
use deltacfs::net::{LinkSpec, SimClock};

fn main() {
    let clock = SimClock::new();
    let mut hub = SyncHub::new(clock.clone());
    let laptop = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    let phone = hub.add_client(DeltaCfsConfig::new(), LinkSpec::mobile());

    // The laptop creates a shared note.
    hub.fs_mut(laptop).create("/notes.md").unwrap();
    hub.fs_mut(laptop)
        .write("/notes.md", 0, b"# Shopping\n- milk\n")
        .unwrap();
    hub.pump();
    clock.advance(4_000);
    hub.pump();
    println!(
        "after laptop edit: phone sees {:?}",
        String::from_utf8_lossy(&hub.fs(phone).peek_all("/notes.md").unwrap())
    );

    // The phone appends; the laptop receives the forwarded increment.
    let len = hub.fs(phone).peek_all("/notes.md").unwrap().len() as u64;
    hub.fs_mut(phone)
        .write("/notes.md", len, b"- eggs\n")
        .unwrap();
    hub.pump();
    clock.advance(4_000);
    hub.pump();
    println!(
        "after phone edit:  laptop sees {:?}",
        String::from_utf8_lossy(&hub.fs(laptop).peek_all("/notes.md").unwrap())
    );

    // Concurrent conflicting edits: first write wins, the loser becomes a
    // conflict copy.
    hub.fs_mut(laptop)
        .write("/notes.md", 2, b"GROCERIES")
        .unwrap();
    hub.fs_mut(phone)
        .write("/notes.md", 2, b"Weekend  ")
        .unwrap();
    hub.pump();
    clock.advance(4_000);
    hub.pump();
    hub.flush();

    println!("\ncloud files after concurrent edits:");
    for path in hub.cloud().paths() {
        println!("  {path}");
    }
    let conflicts = hub.conflicts();
    println!("client-side conflicts recorded: {}", conflicts.len());
    assert!(
        hub.cloud().paths().iter().any(|p| p.contains("conflict")) || !conflicts.is_empty(),
        "the losing edit must survive somewhere"
    );
}
