//! Image filters: Gaussian blur, grayscale conversion, Sobel edge detection.
//!
//! Three of the paper's HardCloud benchmarks are image filters (GAU, GRS,
//! SBL — each ~2.3–2.5 kLoC of Verilog at 200 MHz). FPGA image pipelines
//! process pixels in integer arithmetic with line buffers; this module
//! mirrors that: 8-bit channels, integer kernel math, clamp-to-edge
//! borders.
//!
//! Images are stored as flat row-major buffers in an [`Image`] container.
//!
//! # Examples
//!
//! ```
//! use optimus_algo::image::{Image, grayscale};
//!
//! let rgb = Image::new(4, 4, 3, vec![128; 4 * 4 * 3]);
//! let gray = grayscale(&rgb);
//! assert_eq!(gray.channels(), 1);
//! assert_eq!(gray.get(2, 2, 0), 128);
//! ```

/// A flat row-major image with 1 or 3 byte channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: usize,
    height: usize,
    channels: usize,
    data: Vec<u8>,
}

impl Image {
    /// Creates an image from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height * channels` or `channels` is
    /// not 1 or 3.
    pub fn new(width: usize, height: usize, channels: usize, data: Vec<u8>) -> Self {
        assert!(channels == 1 || channels == 3, "1 or 3 channels supported");
        assert_eq!(data.len(), width * height * channels, "data size mismatch");
        Self {
            width,
            height,
            channels,
            data,
        }
    }

    /// Creates a black image.
    pub fn zeroed(width: usize, height: usize, channels: usize) -> Self {
        Self::new(width, height, channels, vec![0; width * height * channels])
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Channels per pixel (1 = gray, 3 = RGB).
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Raw pixel buffer.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw pixel buffer.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Reads channel `c` of pixel `(x, y)` with clamp-to-edge addressing.
    pub fn get(&self, x: isize, y: isize, c: usize) -> u8 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.data[(y * self.width + x) * self.channels + c]
    }

    /// Writes channel `c` of pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set(&mut self, x: usize, y: usize, c: usize, v: u8) {
        assert!(x < self.width && y < self.height && c < self.channels);
        self.data[(y * self.width + x) * self.channels + c] = v;
    }
}

/// ITU-R BT.601 luma conversion in the integer form hardware uses:
/// `Y = (77 R + 150 G + 29 B + 128) >> 8`.
pub fn grayscale(image: &Image) -> Image {
    if image.channels() == 1 {
        return image.clone();
    }
    let mut out = Image::zeroed(image.width(), image.height(), 1);
    for y in 0..image.height() {
        for x in 0..image.width() {
            let r = image.get(x as isize, y as isize, 0) as u32;
            let g = image.get(x as isize, y as isize, 1) as u32;
            let b = image.get(x as isize, y as isize, 2) as u32;
            let luma = (77 * r + 150 * g + 29 * b + 128) >> 8;
            out.set(x, y, 0, luma.min(255) as u8);
        }
    }
    out
}

/// Filters `image` row by row: `filter(above, center, below, out_row)` gets
/// every row with its two neighbours, clamped to the image.
fn filter_rows(image: &Image, filter: impl Fn(&[u8], &[u8], &[u8], &mut [u8])) -> Image {
    let mut out = Image::zeroed(image.width(), image.height(), image.channels());
    let stride = image.width() * image.channels();
    if stride == 0 {
        return out;
    }
    let row = |r: usize| &image.data()[r * stride..(r + 1) * stride];
    for (y, out_row) in out.data_mut().chunks_exact_mut(stride).enumerate() {
        let below = (y + 1).min(image.height() - 1);
        filter(row(y.saturating_sub(1)), row(y), row(below), out_row);
    }
    out
}

/// Applies a 3×3 Gaussian blur `[1 2 1; 2 4 2; 1 2 1] / 16` per channel
/// (clamp-to-edge).
pub fn gaussian_blur(image: &Image) -> Image {
    filter_rows(image, |above, center, below, out| {
        blur_row(above, center, below, image.channels(), out)
    })
}

/// One output row of [`gaussian_blur`] from the three input rows around it
/// (pass the row itself for a neighbour beyond the image): what a line-
/// buffered hardware pipeline computes per row, with no image in between.
/// The kernel is separable, `[1 2 1]ᵀ ⊗ [1 2 1]`: a column sum per window
/// column, then `[1 2 1]` across the three sums. `channels` interleaved
/// channels put a pixel's horizontal neighbours `channels` bytes away.
///
/// # Panics
///
/// Panics if the four rows differ in length.
pub fn blur_row(above: &[u8], center: &[u8], below: &[u8], channels: usize, out: &mut [u8]) {
    convolve_row([above, center, below], channels, out, |a, c, b| {
        let column = |x: usize| a[x] as u16 + 2 * c[x] as u16 + b[x] as u16;
        // At most 16 · 255 + 8: no clamp needed after the shift.
        ((column(0) + 2 * column(1) + column(2) + 8) >> 4) as u8
    });
}

/// One output row of [`sobel`] from three grayscale rows (pass the row
/// itself for a neighbour beyond the image).
///
/// # Panics
///
/// Panics if the four rows differ in length.
pub fn sobel_row(above: &[u8], center: &[u8], below: &[u8], out: &mut [u8]) {
    convolve_row([above, center, below], 1, out, |a, c, b| {
        let column = |x: usize| a[x] as i32 + 2 * c[x] as i32 + b[x] as i32;
        let across = |row: [u8; 3]| row[0] as i32 + 2 * row[1] as i32 + row[2] as i32;
        let gx = column(2) - column(0);
        let gy = across(b) - across(a);
        (gx.abs() + gy.abs()).min(255) as u8
    });
}

/// Drives a 3×3 window along a row: `pixel(above, center, below)` gets the
/// window's three rows, left to right, the outer columns clamped to the
/// row. Only the first and last pixel can clamp, so the loop between them
/// is branch-free over equal-length slices.
fn convolve_row(
    rows: [&[u8]; 3],
    channels: usize,
    out: &mut [u8],
    pixel: impl Fn([u8; 3], [u8; 3], [u8; 3]) -> u8,
) {
    let len = out.len();
    assert!(
        rows.iter().all(|r| r.len() == len),
        "window rows and output row differ in length"
    );
    let window = |left: usize, mid: usize, right: usize| {
        let [a, c, b] = rows.map(|r| [r[left], r[mid], r[right]]);
        pixel(a, c, b)
    };
    let clamped = |k: usize| {
        let left = if k >= channels { k - channels } else { k };
        let right = if k + channels < len { k + channels } else { k };
        window(left, k, right)
    };
    let edge = len.min(channels);
    let (first, rest) = out.split_at_mut(edge);
    let (inner, last) = rest.split_at_mut(len.saturating_sub(2 * edge));
    for (k, o) in first.iter_mut().enumerate() {
        *o = clamped(k);
    }
    // Each row as three slices of the inner pixels' left, own and right
    // columns, all of the inner length: indexed without bounds checks.
    let n = inner.len();
    let [a, c, b] = rows.map(|r| [&r[..n], &r[edge..][..n], &r[len - n..]]);
    for (k, o) in inner.iter_mut().enumerate() {
        *o = pixel(
            [a[0][k], a[1][k], a[2][k]],
            [c[0][k], c[1][k], c[2][k]],
            [b[0][k], b[1][k], b[2][k]],
        );
    }
    let last_at = len - last.len();
    for (k, o) in last.iter_mut().enumerate() {
        *o = clamped(last_at + k);
    }
}

/// Sobel edge magnitude on a grayscale image (`|Gx| + |Gy|`, saturated) —
/// the L1 approximation FPGA pipelines use to avoid a square root, with
/// `Gx = [-1 0 1; -2 0 2; -1 0 1]` and `Gy` its transpose.
///
/// RGB inputs are converted to grayscale first.
pub fn sobel(image: &Image) -> Image {
    filter_rows(&grayscale(image), sobel_row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_testkit::runner::check;
    use optimus_testkit::{gens, prop_assert_eq};

    fn gradient_image(w: usize, h: usize) -> Image {
        let mut img = Image::zeroed(w, h, 1);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, 0, ((x * 255) / w.max(1)) as u8);
            }
        }
        img
    }

    #[test]
    fn grayscale_white_stays_white() {
        let img = Image::new(2, 2, 3, vec![255; 12]);
        let g = grayscale(&img);
        assert!(g.data().iter().all(|&v| v == 255));
    }

    #[test]
    fn grayscale_weights_green_highest() {
        let red = Image::new(1, 1, 3, vec![255, 0, 0]);
        let green = Image::new(1, 1, 3, vec![0, 255, 0]);
        let blue = Image::new(1, 1, 3, vec![0, 0, 255]);
        let (r, g, b) = (
            grayscale(&red).get(0, 0, 0),
            grayscale(&green).get(0, 0, 0),
            grayscale(&blue).get(0, 0, 0),
        );
        assert!(g > r && r > b, "r={r} g={g} b={b}");
    }

    #[test]
    fn grayscale_of_gray_is_identity() {
        let img = gradient_image(8, 8);
        assert_eq!(grayscale(&img), img);
    }

    #[test]
    fn blur_preserves_constant_image() {
        let img = Image::new(5, 5, 1, vec![77; 25]);
        assert_eq!(gaussian_blur(&img), img);
    }

    #[test]
    fn blur_reduces_contrast_of_impulse() {
        let mut img = Image::zeroed(5, 5, 1);
        img.set(2, 2, 0, 255);
        let out = gaussian_blur(&img);
        // Center keeps the 4/16 weight.
        assert_eq!(out.get(2, 2, 0), 64);
        assert_eq!(out.get(1, 2, 0), 32);
        assert_eq!(out.get(1, 1, 0), 16);
        assert_eq!(out.get(0, 0, 0), 0);
    }

    #[test]
    fn blur_conserves_mean_of_smooth_image() {
        let img = gradient_image(32, 32);
        let out = gaussian_blur(&img);
        let mean_in: f64 =
            img.data().iter().map(|&v| v as f64).sum::<f64>() / img.data().len() as f64;
        let mean_out: f64 =
            out.data().iter().map(|&v| v as f64).sum::<f64>() / out.data().len() as f64;
        assert!((mean_in - mean_out).abs() < 1.0);
    }

    #[test]
    fn sobel_flat_image_is_zero() {
        let img = Image::new(6, 6, 1, vec![123; 36]);
        let out = sobel(&img);
        assert!(out.data().iter().all(|&v| v == 0));
    }

    #[test]
    fn sobel_finds_vertical_edge() {
        // Left half black, right half white: strong response on the seam.
        let mut img = Image::zeroed(8, 8, 1);
        for y in 0..8 {
            for x in 4..8 {
                img.set(x, y, 0, 255);
            }
        }
        let out = sobel(&img);
        assert_eq!(out.get(3, 4, 0), 255);
        assert_eq!(out.get(4, 4, 0), 255);
        assert_eq!(out.get(1, 4, 0), 0);
        assert_eq!(out.get(6, 4, 0), 0);
    }

    #[test]
    fn sobel_accepts_rgb() {
        let img = Image::new(4, 4, 3, vec![200; 48]);
        let out = sobel(&img);
        assert_eq!(out.channels(), 1);
        assert!(out.data().iter().all(|&v| v == 0));
    }

    #[test]
    fn clamp_to_edge_addressing() {
        let img = gradient_image(4, 4);
        assert_eq!(img.get(-5, 0, 0), img.get(0, 0, 0));
        assert_eq!(img.get(10, 2, 0), img.get(3, 2, 0));
    }

    #[test]
    #[should_panic(expected = "data size mismatch")]
    fn rejects_bad_buffer_size() {
        Image::new(4, 4, 3, vec![0; 10]);
    }

    const GAUSS3: [[i32; 3]; 3] = [[1, 2, 1], [2, 4, 2], [1, 2, 1]];
    const SOBEL_X: [[i32; 3]; 3] = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]];
    const SOBEL_Y: [[i32; 3]; 3] = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]];

    /// The 3×3 window summed tap by tap through the clamping `get`: the
    /// definition the row functions are an optimisation of.
    fn convolve_per_tap(
        image: &Image,
        kernel: &[[i32; 3]; 3],
        x: isize,
        y: isize,
        c: usize,
    ) -> i32 {
        let mut acc = 0;
        for (ky, row) in kernel.iter().enumerate() {
            for (kx, &w) in row.iter().enumerate() {
                acc += w * image.get(x + kx as isize - 1, y + ky as isize - 1, c) as i32;
            }
        }
        acc
    }

    fn blur_per_tap(image: &Image) -> Image {
        let mut out = Image::zeroed(image.width(), image.height(), image.channels());
        for y in 0..image.height() {
            for x in 0..image.width() {
                for c in 0..image.channels() {
                    let acc = convolve_per_tap(image, &GAUSS3, x as isize, y as isize, c);
                    out.set(x, y, c, ((acc + 8) / 16).clamp(0, 255) as u8);
                }
            }
        }
        out
    }

    fn sobel_per_tap(image: &Image) -> Image {
        let gray = grayscale(image);
        let mut out = Image::zeroed(gray.width(), gray.height(), 1);
        for y in 0..gray.height() {
            for x in 0..gray.width() {
                let gx = convolve_per_tap(&gray, &SOBEL_X, x as isize, y as isize, 0);
                let gy = convolve_per_tap(&gray, &SOBEL_Y, x as isize, y as isize, 0);
                out.set(x, y, 0, (gx.abs() + gy.abs()).min(255) as u8);
            }
        }
        out
    }

    /// A `w × h` image of 1 or 3 channels whose pixels cycle through
    /// generated bytes (so shrinking the bytes simplifies the picture).
    fn image_gen() -> gens::Gen<Image> {
        gens::zip4(
            gens::usize_in(1..71),
            gens::usize_in(1..71),
            gens::choose(vec![1usize, 3]),
            gens::vec_of(gens::byte_any(), 1..400),
        )
        .map(|(w, h, channels, bytes)| {
            let pixels = bytes.iter().copied().cycle();
            Image::new(w, h, channels, pixels.take(w * h * channels).collect())
        })
    }

    #[test]
    fn blur_and_sobel_match_the_per_tap_definition() {
        check("image_rows_oracle", &image_gen(), |image: &Image| {
            prop_assert_eq!(gaussian_blur(image), blur_per_tap(image));
            prop_assert_eq!(sobel(image), sobel_per_tap(image));
            Ok(())
        });
    }

    /// What the accelerator relies on: a row function applied to three
    /// rows is the centre row of filtering those rows as a 3-row image.
    #[test]
    fn row_functions_are_the_centre_row_of_a_three_row_image() {
        let gen = image_gen().map(|image| {
            let stride = image.width() * image.channels();
            let pixels = image.data().iter().copied().cycle();
            let rows = pixels.take(3 * stride).collect();
            Image::new(image.width(), 3, image.channels(), rows)
        });
        check("image_row_entry_points", &gen, |image: &Image| {
            let stride = image.width() * image.channels();
            let rows: Vec<&[u8]> = image.data().chunks_exact(stride).collect();
            let centre = |filtered: Image| filtered.data()[stride..2 * stride].to_vec();
            let mut out = vec![0u8; stride];
            blur_row(rows[0], rows[1], rows[2], image.channels(), &mut out);
            prop_assert_eq!(out, centre(blur_per_tap(image)));
            if image.channels() == 1 {
                sobel_row(rows[0], rows[1], rows[2], &mut out);
                prop_assert_eq!(out, centre(sobel_per_tap(image)));
            }
            Ok(())
        });
    }

    #[test]
    fn empty_images_filter_to_empty_images() {
        for (w, h) in [(0, 0), (0, 3), (3, 0)] {
            let img = Image::zeroed(w, h, 1);
            assert_eq!(gaussian_blur(&img), img);
            assert_eq!(sobel(&img), img);
        }
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn row_functions_reject_ragged_rows() {
        blur_row(&[0; 4], &[0; 4], &[0; 3], 1, &mut [0; 4]);
    }
}
