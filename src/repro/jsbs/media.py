"""The JSBS media-content dataset.

jvm-serializers' workload is a ``MediaContent`` object graph: one ``Media``
(uri, title, dimensions, format, duration, size, bitrate, persons list,
player enum, copyright) plus a list of ``Image`` objects — "each of which
is around 1KB in JSON format" with primitive int/long fields and
reference-type fields (paper §5.1).
"""

from __future__ import annotations

import random

from repro.jvm.jvm import JVM
from repro.jvm.marshal import Obj, to_heap
from repro.types.classdef import ClassDef, ClassPath

MEDIA_CONTENT = "data.media.MediaContent"
MEDIA = "data.media.Media"
IMAGE = "data.media.Image"

MEDIA_CLASSES = [
    ClassDef.define(
        IMAGE,
        [
            ("uri", "Ljava.lang.String;"),
            ("title", "Ljava.lang.String;"),
            ("width", "I"),
            ("height", "I"),
            ("size", "I"),  # enum ordinal: SMALL / LARGE
        ],
    ),
    ClassDef.define(
        MEDIA,
        [
            ("uri", "Ljava.lang.String;"),
            ("title", "Ljava.lang.String;"),
            ("width", "I"),
            ("height", "I"),
            ("format", "Ljava.lang.String;"),
            ("duration", "J"),
            ("size", "J"),
            ("bitrate", "I"),
            ("hasBitrate", "Z"),
            ("persons", "Ljava.util.ArrayList;"),
            ("player", "I"),  # enum ordinal: JAVA / FLASH
            ("copyright", "Ljava.lang.String;"),
        ],
    ),
    ClassDef.define(
        MEDIA_CONTENT,
        [
            ("media", f"L{MEDIA};"),
            ("images", "Ljava.util.ArrayList;"),
        ],
    ),
]


def install_media_classes(classpath: ClassPath) -> ClassPath:
    for d in MEDIA_CLASSES:
        if d.name not in classpath:
            classpath.add(d)
    return classpath


def media_content_value(index: int, seed: int = 2018) -> Obj:
    """A deterministic MediaContent description (Python-side)."""
    rng = random.Random(seed + index)
    images = [
        Obj(IMAGE, {
            "uri": f"http://javaone.com/keynote_{index}_{i}.jpg",
            "title": f"Javaone Keynote {index} thumbnail {i}",
            "width": 640 >> i,
            "height": 480 >> i,
            "size": i % 2,
        })
        for i in range(2 + index % 2)
    ]
    media = Obj(MEDIA, {
        "uri": f"http://javaone.com/keynote_{index}.mpg",
        "title": f"Javaone Keynote {index}",
        "width": 640,
        "height": 480,
        "format": "video/mpg4",
        "duration": 18_000_000 + rng.randrange(1000),
        "size": 58_982_400 + rng.randrange(10_000),
        "bitrate": 262_144,
        "hasBitrate": True,
        "persons": ["Bill Gates", "Steve Jobs", f"Speaker {index}"],
        "player": index % 2,
        "copyright": "None" if index % 3 else "Oracle (c)",
    })
    return Obj(MEDIA_CONTENT, {"media": media, "images": images})


def make_media_content(jvm: JVM, index: int, seed: int = 2018) -> int:
    """Materialize one MediaContent graph on ``jvm``'s heap."""
    install_media_classes(jvm.classpath)
    return to_heap(jvm, media_content_value(index, seed))
