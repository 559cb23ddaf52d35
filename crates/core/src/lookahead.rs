//! The look-ahead schedule shared by the pipeline's memory-bound loops.
//!
//! BOHM knows every record a transaction will touch before anything runs
//! (§3.2.2: CC work is a pure function of the pre-declared sets), so the
//! addresses its loops will miss on are computable long before the loop
//! gets there. Reaching one takes a *chain* of dependent loads — bucket
//! slot → index entry → head version → predecessor or payload — so a single
//! prefetch a fixed distance ahead is not enough: the second load's address
//! is not known until the first has arrived. A [`LookAhead`] therefore runs
//! a small software pipeline in front of the working cursor: each upcoming
//! item passes through `stages` hint stages, `dist` items apart, each stage
//! issuing the next load of the chain for a line the stage before it asked
//! for `dist` items ago.
//!
//! # The rule: carry nothing you will dereference
//! The ring holds *items* — keys, set positions, transaction indices —
//! never pointers into the store. Every stage derives what it needs afresh
//! (from the bucket, under the caller's current pin; from the annotation
//! slot), so whatever happened between two stages — the same key written
//! again inside the window, a version recycled, the caller re-pinned — at
//! worst makes a hint fetch a line nobody needs. The working loop never
//! reads anything a stage produced; deleting every `step` call changes no
//! result. What each stage may dereference is argued where the stage is
//! implemented (`HashIndex::look_ahead`, `exec::hint_txn`).

/// Ring capacity (a power of two); `STAGES × DIST` must stay below it.
const RING: usize = 32;

/// A source of upcoming items plus the ones currently between stages:
/// `STAGES` hint stages, `DIST` items apart.
pub(crate) struct LookAhead<I: Iterator, const STAGES: usize, const DIST: usize> {
    src: I,
    ring: [Option<I::Item>; RING],
    /// Items pulled from `src` so far (exhaustion counts: `None`s are fed
    /// too, so the last real items still drain through every stage).
    fed: usize,
}

impl<I: Iterator, const STAGES: usize, const DIST: usize> LookAhead<I, STAGES, DIST>
where
    I::Item: Copy,
{
    /// Run `STAGES × DIST` items ahead of a working loop that is about to
    /// consume `src`'s items in order and calls [`step`](Self::step) once
    /// per item. `hint(stage, item)` issues stage `stage`'s loads for
    /// `item`.
    pub fn start(src: I, mut hint: impl FnMut(usize, I::Item)) -> Self {
        const { assert!(STAGES * DIST < RING) };
        let mut ahead = Self {
            src,
            ring: [None; RING],
            fed: 0,
        };
        for _ in 0..STAGES * DIST {
            ahead.step(&mut hint);
        }
        ahead
    }

    /// Advance the whole pipeline by one item: pull the next one in, and
    /// run stage `s` for the item pulled `s × DIST` steps ago.
    #[inline]
    pub fn step(&mut self, mut hint: impl FnMut(usize, I::Item)) {
        self.ring[self.fed % RING] = self.src.next();
        for stage in 0..STAGES {
            let Some(at) = self.fed.checked_sub(stage * DIST) else {
                break;
            };
            if let Some(item) = self.ring[at % RING] {
                hint(stage, item);
            }
        }
        self.fed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_passes_every_stage_in_order_and_ahead_of_the_cursor() {
        const N: usize = 20;
        let (stages, dist) = (3, 2);
        let mut seen: Vec<(usize, usize)> = Vec::new(); // (stage, item)
        let mut ahead: LookAhead<_, 3, 2> = LookAhead::start(0..N, |s, i| seen.push((s, i)));
        for cursor in 0..N {
            // About to work on `cursor`: it has been through every stage,
            // and the item `dist` ahead of it through all but the last.
            for stage in 0..stages {
                assert!(seen.contains(&(stage, cursor)), "{cursor} {stage}");
            }
            if cursor + dist < N {
                assert!(seen.contains(&(stages - 2, cursor + dist)));
                assert!(!seen.contains(&(stages - 1, cursor + dist)));
            }
            ahead.step(|s, i| seen.push((s, i)));
        }
        // Stages of one item run in stage order.
        for item in 0..N {
            let order: Vec<usize> = seen
                .iter()
                .filter(|&&(_, i)| i == item)
                .map(|&(s, _)| s)
                .collect();
            assert_eq!(order, (0..stages).collect::<Vec<_>>());
        }
        // Nothing is hinted twice, nothing past the source is invented.
        assert_eq!(seen.len(), N * stages);
    }

    #[test]
    fn short_sources_and_extra_steps_are_harmless() {
        let mut hits = 0;
        let mut ahead: LookAhead<_, 4, 4> = LookAhead::start(0..2, |_, _| hits += 1);
        for _ in 0..40 {
            ahead.step(|_, _| hits += 1);
        }
        assert_eq!(hits, 2 * 4);
    }
}
