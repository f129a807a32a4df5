//! Allocation-free span labels.
//!
//! Every label a protocol records is static text plus computer numbers:
//! `compute`, `pack→C12`, `xmit:xchg:C3→C12`, `xmit:result:C5†lost`.
//! [`Label`] keeps those parts apart — a `&'static str` head, up to two
//! numbers and an optional [`Mark`] suffix — so recording a span copies
//! a few words instead of formatting a heap string, and classifiers
//! match on the parts instead of parsing text. [`Display`] writes the
//! same text the parts were built from.
//!
//! [`Display`]: fmt::Display

use std::fmt;

/// A static suffix that qualifies a label's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mark {
    /// Cut short by a crash (`†crash`); alone, the crash instant itself.
    Crash,
    /// A transmission that vanished in transit (`†lost`).
    Lost,
    /// Work traded to a peer by the exchange family (`·xchg`).
    Xchg,
}

impl Mark {
    const fn suffix(self) -> &'static str {
        match self {
            Mark::Crash => "†crash",
            Mark::Lost => "†lost",
            Mark::Xchg => "·xchg",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Numbers {
    None,
    One(usize),
    Two(usize, usize),
}

/// A span label: a static head, up to two computer numbers and an
/// optional [`Mark`], rendered on demand by [`Display`](fmt::Display).
///
/// Equality is structural: `Label::new("pack→C1")` and
/// `Label::num("pack→C", 1)` render the same text but are different
/// labels. Executors build numbered labels with [`num`](Label::num) and
/// [`route`](Label::route) so classifiers can match on the head alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label {
    head: &'static str,
    numbers: Numbers,
    mark: Option<Mark>,
}

impl Label {
    /// The bare crash marker, `†crash`: the zero-width span recorded at
    /// the instant a worker dies.
    pub const CRASH: Label = Label::new("").marked(Mark::Crash);

    /// Static text only, e.g. `compute`.
    pub const fn new(head: &'static str) -> Self {
        Label {
            head,
            numbers: Numbers::None,
            mark: None,
        }
    }

    /// `{head}{n}`, e.g. `Label::num("pack→C", 12)` renders `pack→C12`.
    pub const fn num(head: &'static str, n: usize) -> Self {
        Label {
            head,
            numbers: Numbers::One(n),
            mark: None,
        }
    }

    /// `{head}{from}→C{to}`, a transfer between two computers, e.g.
    /// `Label::route("xmit:xchg:C", 3, 12)` renders `xmit:xchg:C3→C12`.
    pub const fn route(head: &'static str, from: usize, to: usize) -> Self {
        Label {
            head,
            numbers: Numbers::Two(from, to),
            mark: None,
        }
    }

    /// The same label with `mark` appended.
    pub const fn marked(self, mark: Mark) -> Self {
        Label {
            mark: Some(mark),
            ..self
        }
    }

    /// The static head, without numbers or mark.
    pub const fn head(&self) -> &'static str {
        self.head
    }

    /// The mark, if any.
    pub const fn mark(&self) -> Option<Mark> {
        self.mark
    }

    /// `true` for a label with neither numbers nor mark — `head` is its
    /// whole text.
    pub const fn is_plain(&self) -> bool {
        matches!(self.numbers, Numbers::None) && self.mark.is_none()
    }

    fn write_parts(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str(self.head)?;
        match self.numbers {
            Numbers::None => {}
            Numbers::One(n) => write!(out, "{n}")?,
            Numbers::Two(from, to) => write!(out, "{from}→C{to}")?,
        }
        match self.mark {
            Some(mark) => out.write_str(mark.suffix()),
            None => Ok(()),
        }
    }
}

impl From<&'static str> for Label {
    fn from(head: &'static str) -> Self {
        Label::new(head)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.width().is_none() && f.precision().is_none() {
            return self.write_parts(f);
        }
        // Padding needs the whole text at once; only reports ask for it.
        let mut text = String::new();
        self.write_parts(&mut text)?;
        f.pad(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_constructor_renders_its_exact_text() {
        let cases = [
            (Label::new("compute"), "compute"),
            (Label::from("wait:channel"), "wait:channel"),
            (Label::num("pack→C", 12), "pack→C12"),
            (Label::num("compute#", 0), "compute#0"),
            (Label::route("xmit:xchg:C", 3, 12), "xmit:xchg:C3→C12"),
            (Label::route("xmit:xchg:C", 0, 0), "xmit:xchg:C0→C0"),
            (Label::CRASH, "†crash"),
            (Label::new("compute").marked(Mark::Crash), "compute†crash"),
            (
                Label::num("xmit:result:C", 12).marked(Mark::Lost),
                "xmit:result:C12†lost",
            ),
            (Label::num("recv←C", 3).marked(Mark::Xchg), "recv←C3·xchg"),
            (
                Label::route("xmit:xchg:C", 10, 9).marked(Mark::Lost),
                "xmit:xchg:C10→C9†lost",
            ),
        ];
        for (label, text) in cases {
            assert_eq!(label.to_string(), text);
        }
    }

    #[test]
    fn padding_applies_to_the_whole_text() {
        let label = Label::num("pack→C", 7);
        assert_eq!(format!("[{label:<10}]"), "[pack→C7   ]");
        assert_eq!(format!("[{label:>9}]"), "[  pack→C7]");
        assert_eq!(format!("[{label:.4}]"), "[pack]");
    }

    #[test]
    fn parts_are_readable_and_equality_is_structural() {
        let lost = Label::num("xmit:result:C", 5).marked(Mark::Lost);
        assert_eq!(lost.head(), "xmit:result:C");
        assert_eq!(lost.mark(), Some(Mark::Lost));
        assert!(!lost.is_plain());
        assert!(Label::new("compute").is_plain());
        assert!(!Label::num("pack→C", 1).is_plain());
        assert_eq!(Label::CRASH.head(), "");
        assert_ne!(Label::new("pack→C1"), Label::num("pack→C", 1));
        assert_eq!(
            Label::new("pack→C1").to_string(),
            Label::num("pack→C", 1).to_string()
        );
    }
}
