//! Counts of operations attempted and failed over a whole run.

/// Every operation of a run (query, load, served request, reload,
/// output check) is counted once: `ok`, `failed` (refused, erroring, or
/// over the latency limit) or `wrong` (it answered, incorrectly — which
/// also makes the run's `correct` false).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    notes: Vec<String>,
}

/// Failure notes kept for printing; the counts are always exact.
const MAX_NOTES: usize = 20;

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn failed(&mut self, note: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(note);
    }

    pub fn wrong(&mut self, note: String) {
        self.wrong += 1;
        self.failed(note);
    }

    /// Count one output check.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if holds {
            self.ok();
        } else {
            self.wrong(what());
        }
    }

    fn note(&mut self, note: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for note in other.notes {
            self.note(note);
        }
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_answers_count_as_failed_too() {
        let mut t = Tally::default();
        t.ok();
        t.failed("slow".into());
        t.check(true, || unreachable!());
        t.check(false, || "mismatch".into());
        let mut other = Tally::default();
        other.wrong("bad".into());
        t.absorb(other);
        assert_eq!((t.attempted, t.failed, t.wrong), (5, 3, 2));
        assert_eq!(t.notes(), ["slow", "mismatch", "bad"]);
    }
}
