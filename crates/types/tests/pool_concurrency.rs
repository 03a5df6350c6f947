//! The name pool under concurrent use: two threads retain, read and
//! release shared ids while a third interns fresh names past the
//! high-water mark, so stripes sweep and reuse freed slots the whole
//! time. An id a thread holds must never be swept, and so must never
//! read another name.

use std::sync::{Arc, Barrier};
use std::thread;

use flowdns_types::{NameId, NameInterner};

/// Shared names every reader holds for its whole run.
const SHARED: usize = 64;
/// Passes each reader makes over the shared names.
const ROUNDS: usize = 2_000;
/// Fresh names the writer interns and drops: several high-water marks'
/// worth per stripe.
const FRESH: usize = 40_000;

#[test]
fn held_ids_keep_their_names_while_sweeps_reuse_slots() {
    // Two stripes: the writer's sweeps and the readers' counts meet on
    // every stripe.
    let pool = Arc::new(NameInterner::with_shards(2));
    let shared: Arc<Vec<(NameId, String)>> = Arc::new(
        (0..SHARED)
            .map(|i| {
                let text = format!("shared{i}.cdn.example.net");
                (pool.intern(&text), text)
            })
            .collect(),
    );
    // Readers take their own count on every shared id before the main
    // thread gives up the counts it interned them with.
    let held = Arc::new(Barrier::new(3));
    let readers: Vec<_> = (0..2)
        .map(|reader| {
            let (pool, shared, held) = (pool.clone(), shared.clone(), held.clone());
            thread::spawn(move || {
                for (id, _) in shared.iter() {
                    pool.retain(*id);
                }
                held.wait();
                for round in 0..ROUNDS {
                    for (i, (id, text)) in shared.iter().enumerate() {
                        if (i + round + reader) % 2 == 0 {
                            pool.retain(*id);
                            assert_eq!(pool.text(*id).as_deref(), Some(text.as_str()));
                            pool.release(*id);
                        } else {
                            let again = pool.intern(text);
                            assert_eq!(again, *id, "{text} moved to another slot");
                            assert_eq!(pool.domain(again).unwrap().as_str(), text);
                            pool.release(again);
                        }
                    }
                }
                for (id, _) in shared.iter() {
                    pool.release(*id);
                }
            })
        })
        .collect();
    held.wait();
    for (id, _) in shared.iter() {
        pool.release(*id);
    }
    let writer = {
        let pool = pool.clone();
        thread::spawn(move || {
            for i in 0..FRESH {
                let text = format!("fresh{i}.example.org");
                let id = pool.intern(&text);
                assert_eq!(pool.text(id).as_deref(), Some(text.as_str()));
                pool.release(id);
            }
        })
    };
    for thread in readers.into_iter().chain([writer]) {
        thread.join().expect("no thread panicked");
    }
    // Nothing is held any more: every byte count is back to 0, and a
    // sweep empties the pool.
    assert_eq!(pool.referenced_bytes(), 0);
    pool.purge_unreferenced();
    assert!(pool.is_empty());
}
