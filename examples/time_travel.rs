//! Fine-grained version control (paper §III-C): every sync-queue node the
//! cloud applies becomes a retained version; browse the history and
//! restore any of them. Also demonstrates the binary wire format.
//!
//! ```text
//! cargo run --example time_travel
//! ```

use deltacfs::core::{wire, ClientId, CloudServer, DeltaCfsClient, DeltaCfsConfig, Version};
use deltacfs::net::SimClock;
use deltacfs::vfs::Vfs;

fn main() {
    let clock = SimClock::new();
    let mut client = DeltaCfsClient::new(ClientId(1), DeltaCfsConfig::new(), clock.clone());
    let mut fs = Vfs::new();
    fs.enable_event_log();

    let mut server = CloudServer::new();

    let mut edit_and_sync = |content: &[u8], client: &mut DeltaCfsClient, fs: &mut Vfs| {
        if !fs.exists("/story.txt") {
            fs.create("/story.txt").unwrap();
        }
        fs.truncate("/story.txt", 0).unwrap();
        fs.write("/story.txt", 0, content).unwrap();
        for e in fs.drain_events() {
            client.handle_event(&e, fs);
        }
        clock.advance(4_000);
        for group in client.tick(fs) {
            // Round-trip each message through the wire format, as a real
            // transport would.
            let shipped: Vec<_> = group
                .iter()
                .map(|m| wire::decode(&wire::encode(m)).expect("wire round-trip"))
                .collect();
            server.apply_txn(&shipped);
        }
    };

    edit_and_sync(b"Once upon a time.", &mut client, &mut fs);
    edit_and_sync(
        b"Once upon a time, there was a sync engine.",
        &mut client,
        &mut fs,
    );
    edit_and_sync(b"THE END.", &mut client, &mut fs);

    let history = server.version_history("/story.txt");
    println!("versions retained for /story.txt:");
    for v in &history {
        let content = server.file_at("/story.txt", *v).unwrap();
        println!("  {v}  {:?}", String::from_utf8_lossy(&content));
    }

    // Restore the middle draft.
    let wanted: Version = history[history.len() - 2];
    let restored_as = Version {
        client: ClientId(1),
        counter: 999,
    };
    assert!(server.restore("/story.txt", wanted, restored_as));
    println!(
        "\nrestored {} -> current content: {:?}",
        wanted,
        String::from_utf8_lossy(server.file("/story.txt").unwrap())
    );
}
