//! Attribute schema and instances.

use geostream::{Persist, PersistError, PersistReader, PersistWriter};

/// Description of one attribute of the training instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttributeSpec {
    /// A categorical attribute with values `0..arity`.
    Categorical { name: String, arity: u32 },
    /// A real-valued attribute.
    Numeric { name: String },
}

impl AttributeSpec {
    /// Convenience constructor for a categorical attribute.
    pub fn categorical(name: &str, arity: u32) -> Self {
        assert!(arity >= 2, "categorical attribute needs arity >= 2");
        AttributeSpec::Categorical {
            name: name.to_owned(),
            arity,
        }
    }

    /// Convenience constructor for a numeric attribute.
    pub fn numeric(name: &str) -> Self {
        AttributeSpec::Numeric {
            name: name.to_owned(),
        }
    }

    /// The attribute's display name.
    pub fn name(&self) -> &str {
        match self {
            AttributeSpec::Categorical { name, .. } | AttributeSpec::Numeric { name } => name,
        }
    }
}

/// One attribute value of an instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Index into a categorical attribute's value set.
    Cat(u32),
    /// A numeric value.
    Num(f64),
}

impl Value {
    /// The categorical index; panics if the value is numeric.
    #[inline]
    pub fn as_cat(self) -> u32 {
        match self {
            Value::Cat(v) => v,
            // LINT-ALLOW(no-panic): observer/value type mismatch is a caller bug: the tree wires observers by schema
            Value::Num(_) => panic!("expected categorical value, found numeric"),
        }
    }

    /// The numeric value; panics if the value is categorical.
    #[inline]
    pub fn as_num(self) -> f64 {
        match self {
            Value::Num(v) => v,
            // LINT-ALLOW(no-panic): observer/value type mismatch is a caller bug: the tree wires observers by schema
            Value::Cat(_) => panic!("expected numeric value, found categorical"),
        }
    }
}

/// A training or prediction instance: one value per schema attribute.
pub type Instance = Vec<Value>;

/// The schema all instances of one tree share: the attribute list plus the
/// number of classes.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    attributes: Vec<AttributeSpec>,
    num_classes: u32,
}

impl Schema {
    /// Builds a schema. `num_classes` must be at least 2.
    pub fn new(attributes: Vec<AttributeSpec>, num_classes: u32) -> Self {
        assert!(
            !attributes.is_empty(),
            "schema needs at least one attribute"
        );
        assert!(num_classes >= 2, "schema needs at least two classes");
        Schema {
            attributes,
            num_classes,
        }
    }

    /// The attribute descriptions.
    pub fn attributes(&self) -> &[AttributeSpec] {
        &self.attributes
    }

    /// Number of attributes per instance.
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Number of target classes.
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// Checks that `instance` conforms to the schema (length, value kinds,
    /// categorical ranges). Returns a description of the first violation.
    pub fn validate(&self, instance: &Instance) -> Result<(), String> {
        if instance.len() != self.attributes.len() {
            return Err(format!(
                "instance has {} values, schema has {} attributes",
                instance.len(),
                self.attributes.len()
            ));
        }
        for (i, (v, spec)) in instance.iter().zip(&self.attributes).enumerate() {
            match (v, spec) {
                (Value::Cat(c), AttributeSpec::Categorical { arity, name }) => {
                    if c >= arity {
                        return Err(format!(
                            "attribute {i} ({name}): categorical value {c} out of range 0..{arity}"
                        ));
                    }
                }
                (Value::Num(n), AttributeSpec::Numeric { name }) => {
                    if !n.is_finite() {
                        return Err(format!("attribute {i} ({name}): non-finite value {n}"));
                    }
                }
                (Value::Num(_), AttributeSpec::Categorical { name, .. }) => {
                    return Err(format!("attribute {i} ({name}): expected categorical"));
                }
                (Value::Cat(_), AttributeSpec::Numeric { name }) => {
                    return Err(format!("attribute {i} ({name}): expected numeric"));
                }
            }
        }
        Ok(())
    }
}

impl Persist for AttributeSpec {
    fn persist(&self, w: &mut PersistWriter) {
        match self {
            AttributeSpec::Categorical { name, arity } => {
                w.put_u8(0);
                w.put_str(name);
                w.put_u32(*arity);
            }
            AttributeSpec::Numeric { name } => {
                w.put_u8(1);
                w.put_str(name);
            }
        }
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        match r.take_u8("AttributeSpec.discriminant")? {
            0 => {
                let name = r.take_str("AttributeSpec.name")?;
                let arity = r.take_u32("AttributeSpec.arity")?;
                if arity < 2 {
                    return Err(PersistError::Corrupt {
                        context: "AttributeSpec.arity",
                        detail: format!("categorical arity {arity} < 2"),
                    });
                }
                Ok(AttributeSpec::Categorical { name, arity })
            }
            1 => Ok(AttributeSpec::Numeric {
                name: r.take_str("AttributeSpec.name")?,
            }),
            d => Err(PersistError::Corrupt {
                context: "AttributeSpec.discriminant",
                detail: format!("unknown attribute kind {d}"),
            }),
        }
    }
}

impl Persist for Schema {
    fn persist(&self, w: &mut PersistWriter) {
        self.attributes.persist(w);
        w.put_u32(self.num_classes);
    }

    fn restore(r: &mut PersistReader<'_>) -> Result<Self, PersistError> {
        let attributes = Vec::<AttributeSpec>::restore(r)?;
        let num_classes = r.take_u32("Schema.num_classes")?;
        if attributes.is_empty() || num_classes < 2 {
            return Err(PersistError::Corrupt {
                context: "Schema",
                detail: format!("{} attributes, {num_classes} classes", attributes.len()),
            });
        }
        Ok(Schema {
            attributes,
            num_classes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            vec![
                AttributeSpec::categorical("color", 3),
                AttributeSpec::numeric("size"),
            ],
            2,
        )
    }

    #[test]
    fn validate_accepts_conforming() {
        let s = schema();
        assert!(s.validate(&vec![Value::Cat(2), Value::Num(1.5)]).is_ok());
    }

    #[test]
    fn validate_rejects_wrong_length() {
        let s = schema();
        assert!(s.validate(&vec![Value::Cat(0)]).is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_category() {
        let s = schema();
        let err = s
            .validate(&vec![Value::Cat(3), Value::Num(0.0)])
            .unwrap_err();
        assert!(err.contains("out of range"));
    }

    #[test]
    fn validate_rejects_kind_mismatch() {
        let s = schema();
        assert!(s.validate(&vec![Value::Num(0.0), Value::Num(0.0)]).is_err());
        assert!(s.validate(&vec![Value::Cat(0), Value::Cat(0)]).is_err());
    }

    #[test]
    fn validate_rejects_non_finite() {
        let s = schema();
        assert!(s
            .validate(&vec![Value::Cat(0), Value::Num(f64::NAN)])
            .is_err());
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Cat(4).as_cat(), 4);
        assert_eq!(Value::Num(2.5).as_num(), 2.5);
    }

    #[test]
    #[should_panic(expected = "expected numeric")]
    fn as_num_panics_on_cat() {
        let _ = Value::Cat(1).as_num();
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn schema_rejects_single_class() {
        let _ = Schema::new(vec![AttributeSpec::numeric("x")], 1);
    }
}
