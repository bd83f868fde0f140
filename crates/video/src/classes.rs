//! The segmentation classes of the LVS-like workload.
//!
//! The LVS dataset labels 8 actively moving object classes; everything else
//! is background. The class set is reproduced verbatim so the student head
//! has the same 9-way output as the paper's.

/// Total number of classes including background.
pub const NUM_CLASSES: usize = 9;

/// A segmentation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegClass {
    /// Anything that is not one of the 8 object classes.
    Background,
    /// A person.
    Person,
    /// A bicycle.
    Bicycle,
    /// An automobile.
    Automobile,
    /// A bird.
    Bird,
    /// A dog.
    Dog,
    /// A horse.
    Horse,
    /// An elephant.
    Elephant,
    /// A giraffe.
    Giraffe,
}

impl SegClass {
    /// All classes in label-index order (background first).
    pub const ALL: [SegClass; NUM_CLASSES] = [
        SegClass::Background,
        SegClass::Person,
        SegClass::Bicycle,
        SegClass::Automobile,
        SegClass::Bird,
        SegClass::Dog,
        SegClass::Horse,
        SegClass::Elephant,
        SegClass::Giraffe,
    ];

    /// Label index of this class (background is 0).
    pub fn index(self) -> usize {
        SegClass::ALL
            .iter()
            .position(|&c| c == self)
            .expect("class in ALL")
    }

    /// A distinctive base colour (RGB in `[0,1]`) used when rasterising the
    /// class. Distinct colours are what make the workload learnable by a
    /// very small student, mirroring how real object textures differ.
    pub fn base_color(self) -> [f32; 3] {
        match self {
            SegClass::Background => [0.35, 0.45, 0.35],
            SegClass::Person => [0.85, 0.55, 0.45],
            SegClass::Bicycle => [0.20, 0.25, 0.80],
            SegClass::Automobile => [0.75, 0.15, 0.15],
            SegClass::Bird => [0.90, 0.90, 0.30],
            SegClass::Dog => [0.55, 0.35, 0.15],
            SegClass::Horse => [0.40, 0.25, 0.10],
            SegClass::Elephant => [0.55, 0.55, 0.60],
            SegClass::Giraffe => [0.85, 0.70, 0.25],
        }
    }

    /// Spatial texture frequency used when rasterising the class (higher
    /// values give finer patterns), giving each class a second learnable cue
    /// besides colour.
    pub fn texture_frequency(self) -> f32 {
        match self {
            SegClass::Background => 0.15,
            SegClass::Person => 0.9,
            SegClass::Bicycle => 2.2,
            SegClass::Automobile => 0.4,
            SegClass::Bird => 1.6,
            SegClass::Dog => 1.1,
            SegClass::Horse => 0.7,
            SegClass::Elephant => 0.3,
            SegClass::Giraffe => 1.9,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SegClass::Background => "background",
            SegClass::Person => "person",
            SegClass::Bicycle => "bicycle",
            SegClass::Automobile => "automobile",
            SegClass::Bird => "bird",
            SegClass::Dog => "dog",
            SegClass::Horse => "horse",
            SegClass::Elephant => "elephant",
            SegClass::Giraffe => "giraffe",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip() {
        for (i, &c) in SegClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(SegClass::Background.index(), 0);
    }

    #[test]
    fn colors_are_distinct_and_valid() {
        for &a in &SegClass::ALL {
            let c = a.base_color();
            assert!(c.iter().all(|&x| (0.0..=1.0).contains(&x)));
            for &b in &SegClass::ALL {
                if a != b {
                    let ca = a.base_color();
                    let cb = b.base_color();
                    let dist: f32 = ca.iter().zip(cb.iter()).map(|(x, y)| (x - y).abs()).sum();
                    assert!(dist > 0.05, "{a:?} and {b:?} colours too close");
                }
            }
        }
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<_> = SegClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_CLASSES);
    }
}
