//! The few JSON objects the benchmark prints, written by hand (the
//! repository vendors no JSON crate).

/// A JSON object under construction; keys keep insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    fn raw(&mut self, key: &str, value: String) -> &mut Obj {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Obj {
        self.raw(key, quote(value))
    }

    /// Adds a number field, printed with all its digits (`null` if not
    /// finite, which JSON cannot hold).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Obj {
        self.raw(key, number(value))
    }

    /// Adds an array of numbers.
    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Obj {
        let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Obj {
        self.raw(key, value.to_string())
    }

    /// Adds a nested object.
    pub fn obj(&mut self, key: &str, value: Obj) -> &mut Obj {
        self.raw(key, value.render())
    }

    /// The object as one line of JSON.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
