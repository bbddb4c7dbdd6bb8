CREATE TABLE UserV2 (
    user_id INTEGER PRIMARY KEY,
    user_name VARCHAR(255),
    user_title VARCHAR(255),
    user_body INTEGER,
    user_email VARCHAR(255),
    user_status VARCHAR(255)
);
CREATE TABLE Post (
    post_id INTEGER PRIMARY KEY,
    post_name VARCHAR(255),
    post_title VARCHAR(255),
    post_body INTEGER
);
CREATE TABLE Comment (
    comment_id INTEGER PRIMARY KEY,
    comment_name VARCHAR(255),
    comment_title VARCHAR(255)
);
CREATE TABLE Photo (
    photo_id INTEGER PRIMARY KEY,
    comment_id INTEGER,
    photo_name VARCHAR(255),
    photo_title VARCHAR(255),
    photo_body INTEGER,
    photo_email VARCHAR(255),
    comment_body INTEGER,
    comment_email VARCHAR(255)
);
CREATE TABLE Album (
    album_id INTEGER PRIMARY KEY,
    album_name VARCHAR(255),
    album_title VARCHAR(255),
    album_body INTEGER,
    album_email VARCHAR(255),
    extra_album_0 VARCHAR(255),
    extra_album_1 VARCHAR(255),
    extra_album_2 VARCHAR(255)
);
CREATE TABLE "Order" (
    order_id INTEGER PRIMARY KEY,
    order_name VARCHAR(255),
    order_title VARCHAR(255),
    order_body INTEGER,
    order_email VARCHAR(255)
);
CREATE TABLE Product (
    product_id INTEGER PRIMARY KEY,
    product_name VARCHAR(255),
    product_title VARCHAR(255),
    product_body INTEGER,
    product_email VARCHAR(255)
);
CREATE TABLE PostDetail (
    post_id INTEGER PRIMARY KEY,
    post_email VARCHAR(255),
    post_status VARCHAR(255)
);
