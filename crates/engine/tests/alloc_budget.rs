//! Per-tuple allocation budget of the hot WordCount path: splitting a
//! sentence into words, decoding a data frame of words, and counting words
//! already seen must allocate nothing per word. A counting global allocator
//! wraps the system one and counts each thread's allocations, so the tests
//! of this binary may run in parallel.
//!
//! Run: `cargo test -p pdsp-engine --test alloc_budget`.

use pdsp_engine::agg::AggFunc;
use pdsp_engine::message::{Batch, Message};
use pdsp_engine::operator::OpKind;
use pdsp_engine::window::WindowSpec;
use pdsp_engine::wire::{decode_frame, encode_frame};
use pdsp_engine::{Tuple, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // `const` and without a destructor: reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches a
// thread-local `Cell` only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn sentence(words: usize) -> Tuple {
    let text: Vec<String> = (0..words).map(|i| format!("word{i}")).collect();
    Tuple::at(vec![Value::str(text.join(" "))], 5)
}

#[test]
fn splitting_a_sentence_allocates_nothing_per_word() {
    let mut split = OpKind::FlatMapSplit { field: 0 }.instantiate();
    let mut per_size = Vec::new();
    for words in [1, 8] {
        let tuple = sentence(words);
        let mut out = Vec::with_capacity(16);
        let n = allocations(|| split.on_tuple(0, tuple, &mut out).unwrap());
        assert_eq!(out.len(), words);
        per_size.push(n);
    }
    assert_eq!(per_size[0], per_size[1], "1 word vs 8 words: {per_size:?}");
    assert_eq!(per_size[1], 0, "short words into a reserved batch");
}

#[test]
fn decoding_a_frame_allocates_nothing_per_tuple() {
    let mut per_size = Vec::new();
    for tuples in [1, 128] {
        let batch = (0..tuples)
            .map(|i| Tuple::at(vec![Value::str(format!("w{i}"))], i))
            .collect();
        let mut frame = Vec::new();
        encode_frame(&mut frame, 0, 0, &Message::Batch(Batch::new(batch)));
        let mut decoded = None;
        let n = allocations(|| decoded = Some(decode_frame(&frame).unwrap()));
        let Some((_, _, Message::Batch(b))) = decoded else {
            panic!("a batch frame decodes to a batch");
        };
        assert_eq!(b.tuples.len(), tuples as usize);
        per_size.push(n);
    }
    assert_eq!(
        per_size[0], per_size[1],
        "1 tuple vs 128 tuples: {per_size:?}"
    );
}

#[test]
fn counting_seen_keys_allocates_nothing_per_tuple() {
    let mut count = OpKind::WindowAggregate {
        window: WindowSpec::tumbling_count(1_000_000),
        func: AggFunc::Count,
        agg_field: 0,
        key_field: Some(0),
    }
    .instantiate();
    let words: Vec<Tuple> = (0..40)
        .map(|i| Tuple::at(vec![Value::str(format!("word{i}"))], i))
        .collect();
    let mut out = Vec::new();
    for t in &words {
        count.on_tuple(0, t.clone(), &mut out).unwrap();
    }
    let mut per_size = Vec::new();
    for n in [1, 1000] {
        let tuples: Vec<Tuple> = words.iter().cycle().take(n).cloned().collect();
        per_size.push(allocations(|| {
            for t in tuples {
                count.on_tuple(0, t, &mut out).unwrap();
            }
        }));
    }
    assert!(out.is_empty(), "no window fills");
    assert_eq!(
        per_size[0], per_size[1],
        "1 tuple vs 1000 tuples: {per_size:?}"
    );
}
